package lea

import (
	"fmt"
	"math/bits"

	"dmmkit/internal/block"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

// Config tunes the Lea manager; zero values select the defaults of the
// glibc ptmalloc derivative the paper benchmarks as "Lea-Linux":
// M_TRIM_THRESHOLD = M_TOP_PAD = M_MMAP_THRESHOLD = 128 KiB.
type Config struct {
	TrimThreshold int64 // trim top when it exceeds this (default 128 KiB)
	MmapThreshold int64 // direct-map requests at least this large (default 128 KiB)
	TopPad        int64 // extra padding when extending top (default 128 KiB)
}

func (c *Config) defaults() {
	if c.TrimThreshold == 0 {
		c.TrimThreshold = 128 << 10
	}
	if c.MmapThreshold == 0 {
		c.MmapThreshold = 128 << 10
	}
	if c.TopPad == 0 {
		c.TopPad = 128 << 10
	}
}

const (
	minGross  = 16  // header + footer + two links
	fastMax   = 80  // largest gross size handled by fastbins
	smallMax  = 504 // largest gross size with exact small bins
	nFastBins = fastMax/8 + 1
	nSmall    = smallMax/8 + 1 // indexed gross/8, entries below 2 unused
	nLarge    = 22             // log-spaced bins for gross > smallMax
)

var layout = block.Layout{Tags: block.TagsBoth, Info: block.InfoSize | block.InfoStatus, Links: block.LinksDouble}

// Manager is a Lea-style best-fit allocator with boundary tags over a
// simulated heap.
type Manager struct {
	mm.Base
	cfg Config

	heapStart heap.Addr // first managed address (set on first extension)
	top       heap.Addr // wilderness chunk (heap.Nil until first use)

	fast  [nFastBins]heap.Addr // LIFO singly-linked fastbins (via NextFree)
	small [nSmall]heap.Addr    // doubly-linked exact bins
	large [nLarge]heap.Addr    // doubly-linked size-sorted bins

	// Nonempty-bin bitmaps (bit i set iff the bin's head is non-Nil), the
	// dlmalloc binmap idiom: "find first bin >= class with blocks" becomes
	// a TrailingZeros instead of a linear scan. Out-of-band bookkeeping
	// only — placement and footprint are unchanged, and work accounting
	// still charges the probes the un-indexed scan would have made.
	fastMask  uint16
	smallMask uint64 // nSmall == 64 exactly
	largeMask uint32
}

// Bin-head setters keep the nonempty bitmaps in sync with the list heads;
// every head write goes through one of these.

func (m *Manager) setFastHead(i int, b heap.Addr) {
	m.fast[i] = b
	if b == heap.Nil {
		m.fastMask &^= 1 << i
	} else {
		m.fastMask |= 1 << i
	}
}

func (m *Manager) setSmallHead(i int, b heap.Addr) {
	m.small[i] = b
	if b == heap.Nil {
		m.smallMask &^= 1 << i
	} else {
		m.smallMask |= 1 << i
	}
}

func (m *Manager) setLargeHead(i int, b heap.Addr) {
	m.large[i] = b
	if b == heap.Nil {
		m.largeMask &^= 1 << i
	} else {
		m.largeMask |= 1 << i
	}
}

// New returns an empty Lea manager owning h.
func New(h *heap.Heap, cfg Config) *Manager {
	cfg.defaults()
	return &Manager{Base: mm.NewBase(h, layout), cfg: cfg}
}

// Name implements mm.Manager.
func (*Manager) Name() string { return "Lea" }

func fastIndex(gross int64) int  { return int(gross / 8) }
func smallIndex(gross int64) int { return int(gross / 8) }

// largeIndex maps gross sizes > smallMax to log-spaced bins.
func largeIndex(gross int64) int {
	i := 0
	for s := int64(1024); s <= gross && i < nLarge-1; s <<= 1 {
		i++
	}
	return i
}

// Alloc implements mm.Manager.
func (m *Manager) Alloc(req mm.Request) (heap.Addr, error) {
	if req.Size <= 0 {
		m.NoteFail()
		return heap.Nil, mm.ErrBadSize
	}
	gross := layout.GrossFor(req.Size)
	if gross >= m.cfg.MmapThreshold {
		return m.allocMapped(req)
	}
	m.Charge(mm.CostIndex)

	// 1. Exact fastbin hit.
	if gross <= fastMax {
		if b := m.fast[fastIndex(gross)]; b != heap.Nil {
			m.setFastHead(fastIndex(gross), m.V.NextFree(b))
			m.Charge(mm.CostProbe + mm.CostUnlink)
			return m.finishAlloc(b, req, gross)
		}
	}
	// 2. Exact small bin hit.
	if gross <= smallMax {
		if b := m.small[smallIndex(gross)]; b != heap.Nil {
			m.unlinkSmall(b, smallIndex(gross))
			m.Charge(mm.CostProbe + mm.CostUnlink)
			return m.finishAlloc(b, req, gross)
		}
	}
	// Fastbins are consolidated lazily, under memory pressure only (in
	// carveTop, before the break is extended) — the deferred coalescing
	// the paper describes as Lea coalescing "seldomly".
	// 3. Best fit over the remaining bins.
	if b := m.bestFit(gross); b != heap.Nil {
		return m.finishAlloc(b, req, gross)
	}
	// 4. Carve from top, consolidating and extending as needed.
	b, err := m.carveTop(gross)
	if err != nil {
		m.NoteFail()
		return heap.Nil, err
	}
	return m.finishAlloc(b, req, gross)
}

func (m *Manager) allocMapped(req mm.Request) (heap.Addr, error) {
	gross := layout.GrossFor(req.Size)
	base, err := m.V.H.Map(gross)
	if err != nil {
		m.NoteFail()
		return heap.Nil, err
	}
	m.Charge(mm.CostSbrk)
	segGross := m.V.H.SegmentSize(base)
	m.V.SetSegmentHeader(base, gross)
	p := m.V.Payload(base)
	m.Live.Add(p, req.Size)
	m.NoteAlloc(req.Size, segGross)
	return p, nil
}

// finishAlloc marks block b used, splits off any viable remainder, and
// returns the payload address.
func (m *Manager) finishAlloc(b heap.Addr, req mm.Request, gross int64) (heap.Addr, error) {
	have := m.V.Size(b)
	if have-gross >= minGross {
		m.split(b, gross)
		have = gross
	}
	// The header already records size == have on every path into here
	// (bins, split, carveTop), so sealing the block only needs the used
	// bit — a single read-modify-write with bytes identical to the full
	// header rewrite the policy describes.
	m.V.SetUsed(b, true)
	// Mark the physical neighbour, if any below the break, from the size
	// already held: no header re-read.
	if next := b + heap.Addr(have); next < m.V.H.Brk() {
		m.V.SetPrevUsed(next, true)
		m.Charge(mm.CostHeader)
	}
	m.Charge(mm.CostHeader)
	p := m.V.Payload(b)
	m.Live.Add(p, req.Size)
	m.NoteAlloc(req.Size, have)
	return p, nil
}

// split carves block b into a used prefix of want bytes and a free
// remainder placed into a bin.
func (m *Manager) split(b heap.Addr, want int64) {
	have := m.V.Size(b)
	rem := b + heap.Addr(want)
	m.V.SetHeader(b, want, true, m.V.PrevUsed(b))
	m.V.SetHeader(rem, have-want, false, true)
	m.V.WriteFooterSized(rem, have-want)
	m.NoteSplit()
	m.binFree(rem)
}

// bestFit searches small bins at or above gross, then large bins, for the
// smallest free block that fits. Returns heap.Nil when none fits.
//
// The nonempty bitmaps turn the bin scans into TrailingZeros jumps; the
// ChargeN calls account exactly the probes the linear scan would have
// made, so the work metric is unchanged by the indexing.
func (m *Manager) bestFit(gross int64) heap.Addr {
	if gross <= smallMax {
		start := smallIndex(gross)
		if avail := m.smallMask >> start; avail != 0 {
			i := start + bits.TrailingZeros64(avail)
			m.ChargeN(mm.CostProbe, int64(i-start)+1)
			b := m.small[i]
			m.unlinkSmall(b, i)
			m.Charge(mm.CostUnlink)
			return b
		}
		m.ChargeN(mm.CostProbe, int64(nSmall-start))
	}
	start := 0
	if gross > smallMax {
		start = largeIndex(gross)
	}
	//dmm:hotloop
	for avail := m.largeMask >> start; avail != 0; avail &= avail - 1 {
		i := start + bits.TrailingZeros32(avail)
		if b := m.firstFitLarge(i, gross); b != heap.Nil {
			m.unlinkLarge(b, i)
			m.Charge(mm.CostUnlink)
			return b
		}
	}
	return heap.Nil
}

// firstFitLarge returns the first block of at least gross bytes on large
// bin i, or Nil, charging a probe per block visited. It stays a call of
// its own, one per bin visited: inlined, the bounds checks of its heap
// word reads would sit in bestFit's bin loop.
func (m *Manager) firstFitLarge(i int, gross int64) heap.Addr {
	for b := m.large[i]; b != heap.Nil; b = m.V.NextFree(b) {
		m.Charge(mm.CostProbe)
		if m.V.Size(b) >= gross {
			return b
		}
	}
	return heap.Nil
}

// carveTop satisfies gross bytes from the wilderness chunk, consolidating
// fastbins and extending the break as required.
func (m *Manager) carveTop(gross int64) (heap.Addr, error) {
	topSize := m.topSize()
	if topSize < gross+minGross {
		m.consolidate()
		// Consolidation may have merged blocks into top or produced a
		// binned fit; retry the bins once.
		if b := m.bestFit(gross); b != heap.Nil {
			return b, nil
		}
		topSize = m.topSize()
	}
	if topSize < gross+minGross {
		need := gross + minGross - topSize + m.cfg.TopPad
		start, err := m.V.H.Sbrk(need)
		if err != nil {
			return heap.Nil, err
		}
		m.Charge(mm.CostSbrk)
		if m.top == heap.Nil {
			m.heapStart = start
			m.top = start
			m.V.SetHeader(m.top, int64(m.V.H.Brk()-start), false, true)
		} else {
			// sbrk extends contiguously past the old break, growing top.
			m.V.SetHeader(m.top, int64(m.V.H.Brk()-m.top), false, m.V.PrevUsed(m.top))
		}
		m.Charge(mm.CostHeader)
		topSize = m.V.Size(m.top)
	}
	// Carve from the low end of top.
	b := m.top
	prevUsed := m.V.PrevUsed(m.top)
	m.top = b + heap.Addr(gross)
	m.V.SetHeader(m.top, topSize-gross, false, true)
	m.V.SetHeader(b, gross, false, prevUsed) // finishAlloc seals it as used
	m.Charge(mm.CostHeader)
	return b, nil
}

func (m *Manager) topSize() int64 {
	if m.top == heap.Nil {
		return 0
	}
	return m.V.Size(m.top)
}

// Free implements mm.Manager.
func (m *Manager) Free(p heap.Addr) error {
	req, ok := m.Live.Remove(p)
	if !ok {
		m.NoteFail()
		return mm.ErrBadFree
	}
	b := m.V.Block(p)
	if !m.V.H.InSbrkRegion(p) {
		// Only mmapped blocks live outside the break region, and a
		// segment keeps its size until it is unmapped.
		segGross := m.V.H.SegmentSize(b)
		if err := m.V.H.Unmap(b); err != nil {
			m.NoteFail()
			return err
		}
		m.Charge(mm.CostTrim)
		m.NoteFree(req, segGross)
		return nil
	}
	gross := m.V.Size(b)
	m.NoteFree(req, gross)
	if gross <= fastMax {
		// Deferred coalescing: keep the used bit so neighbours skip it.
		m.V.SetNextFree(b, m.fast[fastIndex(gross)])
		m.setFastHead(fastIndex(gross), b)
		m.Charge(mm.CostLink)
		return nil
	}
	m.freeChunk(b, gross)
	m.maybeTrim()
	return nil
}

// freeChunk coalesces block b (header size already read by the caller)
// with free neighbours and places the result in a bin (or merges it into
// top). The caller-supplied size and a tracked prevUsed bit avoid header
// re-reads; every write carries the same bytes as before.
func (m *Manager) freeChunk(b heap.Addr, size int64) {
	prevUsed := m.V.PrevUsed(b)
	// Backward merge.
	if !prevUsed {
		prevSize := m.V.PrevFooterSize(b)
		prev := b - heap.Addr(prevSize)
		m.unbin(prev)
		b = prev
		size += prevSize
		prevUsed = m.V.PrevUsed(b)
		m.NoteCoalesce()
	}
	// Forward merge (with a binned block or with top).
	next := b + heap.Addr(size)
	if next == m.top {
		size += m.V.Size(m.top)
		m.top = b
		m.V.SetHeader(b, size, false, prevUsed)
		m.NoteCoalesce()
		m.Charge(mm.CostHeader)
		return
	}
	if next < m.V.H.Brk() && !m.V.Used(next) {
		m.unbin(next)
		size += m.V.Size(next)
		m.NoteCoalesce()
	}
	m.V.SetHeader(b, size, false, prevUsed)
	m.V.WriteFooterSized(b, size)
	if next := b + heap.Addr(size); next < m.V.H.Brk() {
		m.V.SetPrevUsed(next, false)
		m.Charge(mm.CostHeader)
	}
	m.Charge(mm.CostHeader)
	m.binFree(b)
}

// consolidate empties the fastbins, fully freeing each entry with
// coalescing (dlmalloc's malloc_consolidate).
func (m *Manager) consolidate() {
	for avail := m.fastMask; avail != 0; avail &= avail - 1 {
		i := bits.TrailingZeros16(avail)
		for b := m.fast[i]; b != heap.Nil; {
			next := m.V.NextFree(b)
			m.Charge(mm.CostProbe)
			m.freeChunk(b, m.V.Size(b))
			b = next
		}
		m.setFastHead(i, heap.Nil)
	}
}

// maybeTrim returns the tail of an oversized top chunk to the system.
func (m *Manager) maybeTrim() {
	if m.top == heap.Nil {
		return
	}
	size := m.V.Size(m.top)
	if size < m.cfg.TrimThreshold {
		return
	}
	keep := m.cfg.TopPad
	release := (size - keep) &^ (heap.Align - 1)
	if release <= 0 {
		return
	}
	if err := m.V.H.ShrinkBrk(release); err != nil {
		return // cannot trim (should not happen); keep the memory
	}
	m.Charge(mm.CostTrim)
	m.V.SetHeader(m.top, size-release, false, m.V.PrevUsed(m.top))
	m.Charge(mm.CostHeader)
}

// binFree inserts the free block b into the small or large bin for its
// size. Small bins are LIFO; large bins are kept sorted ascending by size
// so bestFit takes the first fit.
func (m *Manager) binFree(b heap.Addr) {
	size := m.V.Size(b)
	if size <= smallMax {
		i := smallIndex(size)
		m.V.SetNextFree(b, m.small[i])
		m.V.SetPrevFree(b, heap.Nil)
		if m.small[i] != heap.Nil {
			m.V.SetPrevFree(m.small[i], b)
		}
		m.setSmallHead(i, b)
		m.Charge(mm.CostLink)
		return
	}
	i := largeIndex(size)
	var prev heap.Addr
	cur := m.large[i]
	for cur != heap.Nil && m.V.Size(cur) < size {
		m.Charge(mm.CostProbe)
		prev, cur = cur, m.V.NextFree(cur)
	}
	m.V.SetNextFree(b, cur)
	m.V.SetPrevFree(b, prev)
	if cur != heap.Nil {
		m.V.SetPrevFree(cur, b)
	}
	if prev == heap.Nil {
		m.setLargeHead(i, b)
	} else {
		m.V.SetNextFree(prev, b)
	}
	m.Charge(mm.CostLink)
}

// unbin removes a known-free block from whichever doubly linked bin holds
// it (used when coalescing neighbours).
func (m *Manager) unbin(b heap.Addr) {
	size := m.V.Size(b)
	next := m.V.NextFree(b)
	prev := m.V.PrevFree(b)
	if prev == heap.Nil {
		if size <= smallMax {
			m.setSmallHead(smallIndex(size), next)
		} else {
			m.setLargeHead(largeIndex(size), next)
		}
	} else {
		m.V.SetNextFree(prev, next)
	}
	if next != heap.Nil {
		m.V.SetPrevFree(next, prev)
	}
	m.Charge(mm.CostUnlink)
}

func (m *Manager) unlinkSmall(b heap.Addr, i int) {
	next := m.V.NextFree(b)
	m.setSmallHead(i, next)
	if next != heap.Nil {
		m.V.SetPrevFree(next, heap.Nil)
	}
}

func (m *Manager) unlinkLarge(b heap.Addr, i int) {
	next := m.V.NextFree(b)
	prev := m.V.PrevFree(b)
	if prev == heap.Nil {
		m.setLargeHead(i, next)
	} else {
		m.V.SetNextFree(prev, next)
	}
	if next != heap.Nil {
		m.V.SetPrevFree(next, prev)
	}
}

// CheckInvariants walks the managed sbrk region verifying that blocks tile
// it exactly and boundary tags are consistent; it is used by tests after
// torture runs.
func (m *Manager) CheckInvariants() error {
	if m.top == heap.Nil {
		return nil
	}
	end := m.V.H.Brk()
	foundTop := false
	err := m.V.Walk(m.heapStart, end, func(bi block.BlockInfo) error {
		if bi.Addr == m.top {
			foundTop = true
			if bi.Addr+heap.Addr(bi.Size) != end {
				return fmt.Errorf("lea: top chunk does not reach the break")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !foundTop {
		return fmt.Errorf("lea: top chunk missing from heap walk")
	}
	return nil
}

var (
	_ mm.Manager     = (*Manager)(nil)
	_ mm.Checksummer = (*Manager)(nil)
)
