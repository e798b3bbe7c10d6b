package mm

import "dmmkit/internal/heap"

// AddrMap maps 4-aligned addresses in a heap's break region to small
// nonzero values by direct indexing: a two-level page map in the manner
// of tcmalloc's pagemap and ASan's shadow memory. A directory indexed by
// address>>9 covers the address space in 512-byte spans, each of 64
// slots, one per 8-byte granule. A span holding one entry keeps it inline
// in its directory word; a second entry moves the span to a page of 64
// slots, allocated from an arena and recycled through a spare list when
// it empties. Memory therefore follows the live entries rather than the
// footprint: 8 bytes of directory per 512 bytes of the highest address
// stored, plus a 256-byte page per span holding two or more entries.
//
// Each slot also records bit 2 of its address, because two 4-aligned
// addresses p and p+4 share a granule. Put refuses the second of such a
// pair, as it refuses addresses outside the break region, addresses that
// are not 4-aligned and values outside [1, MaxAddrMapValue]; callers keep
// refused entries elsewhere (Shadow in a Table) or treat a refusal as an
// invariant failure. The zero value refuses everything; NewAddrMap
// covers a heap's break region.
type AddrMap struct {
	dir   []uint64   // per 512-byte span: 0, an inline entry or a page reference
	pages []addrPage // page arena; directory words name page i as i+1
	spare []uint32   // emptied pages (as directory words name them), reused first
	limit heap.Addr  // addresses at or above limit are refused
	n     int
}

// A slot word is value<<1 | bit 2 of its address; 0 is an empty slot.
// A directory word is one of:
//
//	0                                        the span holds nothing
//	inlineFlag | slot<<slotShift | granule   the span's one entry
//	page<<usedBits | occupied slots          a page (numbered from 1)
//
// Keeping a page's occupancy in its directory word lets Put and Take
// count slots on the cache line they already read.
const (
	granuleShift = 3 // one slot per 8-byte granule
	pageSlots    = 64
	pageShift    = granuleShift + 6 // 512 bytes of address space per span
	granuleMask  = pageSlots - 1
	slotShift    = 8
	inlineFlag   = 1 << 63
	usedBits     = 7
	usedMask     = 1<<usedBits - 1
)

// MaxAddrMapValue is the largest value an AddrMap holds: slots keep the
// value above the address's bit 2 in 32 bits.
const MaxAddrMapValue = 1<<31 - 1

// addrPage holds one slot word per granule of a span. It is 256 bytes,
// so pages never straddle more cache lines than they must.
type addrPage [pageSlots]uint32

// NewAddrMap returns an empty map covering h's break region: every
// address below the base of its mapped segments.
func NewAddrMap(h *heap.Heap) AddrMap { return AddrMap{limit: h.SegBase()} }

// tag is the bit of p a slot word records beside its value.
func tag(p heap.Addr) uint32 { return uint32(p>>2) & 1 }

// granule is p's slot index within its span.
func granule(p heap.Addr) uint64 { return uint64(p>>granuleShift) & granuleMask }

// inlineEntry is the directory word holding slot word w for p alone.
func inlineEntry(p heap.Addr, w uint32) uint64 {
	return inlineFlag | uint64(w)<<slotShift | granule(p)
}

// word returns the slot word for p's granule (0 when empty) and p's
// directory index, or ok false when p is unaligned or beyond the
// directory.
func (a *AddrMap) word(p heap.Addr) (w uint32, d int, ok bool) {
	d = int(p >> pageShift)
	if p&3 != 0 || d >= len(a.dir) {
		return 0, d, false
	}
	switch e := a.dir[d]; {
	case e&inlineFlag != 0:
		if e&granuleMask == granule(p) {
			w = uint32(e >> slotShift)
		}
	case e != 0:
		w = a.pages[e>>usedBits-1][granule(p)]
	}
	return w, d, true
}

// Get returns the value stored for p.
func (a *AddrMap) Get(p heap.Addr) (uint32, bool) {
	w, _, ok := a.word(p)
	if !ok || w == 0 || w&1 != tag(p) {
		return 0, false
	}
	return w >> 1, true
}

// Put maps p to v, replacing any previous value for p. It reports false,
// storing nothing, when p is outside the covered range or not 4-aligned,
// when v is 0 or above MaxAddrMapValue, or when p+4 or p-4 holds p's
// granule.
func (a *AddrMap) Put(p heap.Addr, v uint32) bool {
	if p&3 != 0 || p >= a.limit || v == 0 || v > MaxAddrMapValue {
		return false
	}
	d := int(p >> pageShift)
	if d >= len(a.dir) {
		a.growDir(d)
	}
	w := v<<1 | tag(p)
	e := a.dir[d]
	switch {
	case e == 0:
		a.dir[d] = inlineEntry(p, w)
		a.n++
		return true
	case e&inlineFlag != 0 && e&granuleMask == granule(p):
		if uint32(e>>slotShift)&1 != tag(p) {
			return false
		}
		a.dir[d] = inlineEntry(p, w)
		return true
	case e&inlineFlag != 0:
		// A second granule in the span: move the inline entry to a page.
		pg := a.newPage()
		a.pages[pg-1][e&granuleMask] = uint32(e >> slotShift)
		e = uint64(pg)<<usedBits | 1
		a.dir[d] = e
	}
	s := &a.pages[e>>usedBits-1][granule(p)]
	switch {
	case *s == 0:
		a.dir[d]++
		a.n++
	case *s&1 != tag(p):
		return false
	}
	*s = w
	return true
}

// Take removes p and returns its value; ok is false when p is absent.
func (a *AddrMap) Take(p heap.Addr) (v uint32, ok bool) {
	w, d, ok := a.word(p)
	if !ok || w == 0 || w&1 != tag(p) {
		return 0, false
	}
	a.n--
	e := a.dir[d]
	if e&inlineFlag != 0 {
		a.dir[d] = 0
		return w >> 1, true
	}
	a.pages[e>>usedBits-1][granule(p)] = 0
	if e--; e&usedMask == 0 {
		a.spare = append(a.spare, uint32(e>>usedBits))
		e = 0
	}
	a.dir[d] = e
	return w >> 1, true
}

// Len returns the number of entries.
func (a *AddrMap) Len() int { return a.n }

// growDir extends the directory to cover span d, at least doubling it
// but never past the span holding limit-1.
func (a *AddrMap) growDir(d int) {
	size := max(d+1, 2*len(a.dir))
	size = min(size, int((a.limit-1)>>pageShift)+1)
	a.dir = append(a.dir, make([]uint64, size-len(a.dir))...)
}

// newPage returns an empty page as directory words name it, reusing a
// spare one (emptied slot by slot, so already zero) before growing the
// arena.
func (a *AddrMap) newPage() uint32 {
	if n := len(a.spare); n > 0 {
		pg := a.spare[n-1]
		a.spare = a.spare[:n-1]
		return pg
	}
	a.pages = append(a.pages, addrPage{})
	return uint32(len(a.pages))
}
