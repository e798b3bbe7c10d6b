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
	mm.Accounting
	h   *heap.Heap
	v   block.View
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

	mapped map[heap.Addr]int64 // payload -> segment base gross for mmapped blocks
	live   mm.Shadow
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
	return &Manager{h: h, v: block.NewView(h, layout), cfg: cfg, mapped: make(map[heap.Addr]int64), live: mm.NewShadow(h)}
}

// Name implements mm.Manager.
func (*Manager) Name() string { return "Lea" }

// Heap exposes the simulated heap for tests and diagnostics.
func (m *Manager) Heap() *heap.Heap { return m.h }

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
			m.setFastHead(fastIndex(gross), m.v.NextFree(b))
			m.Charge(mm.CostProbe + mm.CostUnlink)
			return m.finishAlloc(b, req, gross, false)
		}
	}
	// 2. Exact small bin hit.
	if gross <= smallMax {
		if b := m.small[smallIndex(gross)]; b != heap.Nil {
			m.unlinkSmall(b, smallIndex(gross))
			m.Charge(mm.CostProbe + mm.CostUnlink)
			return m.finishAlloc(b, req, gross, true)
		}
	}
	// Fastbins are consolidated lazily, under memory pressure only (in
	// carveTop, before the break is extended) — the deferred coalescing
	// the paper describes as Lea coalescing "seldomly".
	// 3. Best fit over the remaining bins.
	if b := m.bestFit(gross); b != heap.Nil {
		return m.finishAlloc(b, req, gross, true)
	}
	// 4. Carve from top, consolidating and extending as needed.
	b, err := m.carveTop(gross)
	if err != nil {
		m.NoteFail()
		return heap.Nil, err
	}
	return m.finishAlloc(b, req, gross, false)
}

// lookupMapped checks the mmapped-block table, skipping the map probe
// for every payload in the break region, where no mapped block lives.
func (m *Manager) lookupMapped(p heap.Addr) (int64, bool) {
	if len(m.mapped) == 0 || m.h.InSbrkRegion(p) {
		return 0, false
	}
	segGross, ok := m.mapped[p]
	return segGross, ok
}

func (m *Manager) allocMapped(req mm.Request) (heap.Addr, error) {
	gross := layout.GrossFor(req.Size)
	base, err := m.h.Map(gross)
	if err != nil {
		m.NoteFail()
		return heap.Nil, err
	}
	m.Charge(mm.CostSbrk)
	segGross := m.h.SegmentSize(base)
	m.v.SetHeader(base, gross, true, true)
	p := m.v.Payload(base)
	m.mapped[p] = segGross
	m.live.Add(p, req.Size)
	m.NoteAlloc(req.Size, segGross)
	return p, nil
}

// finishAlloc marks block b used, splits off any viable remainder, and
// returns the payload address. fromBin records whether b came from a
// doubly linked bin (footer valid) — needed only for accounting clarity.
func (m *Manager) finishAlloc(b heap.Addr, req mm.Request, gross int64, fromBin bool) (heap.Addr, error) {
	_ = fromBin
	have := m.v.Size(b)
	if have-gross >= minGross {
		m.split(b, gross)
		have = gross
	}
	// The header already records size == have on every path into here
	// (bins, split, carveTop), so sealing the block only needs the used
	// bit — a single read-modify-write with bytes identical to the full
	// header rewrite the policy describes.
	m.v.SetUsed(b, true)
	m.setNextPrevUsed(b+heap.Addr(have), true)
	m.Charge(mm.CostHeader)
	p := m.v.Payload(b)
	m.live.Add(p, req.Size)
	m.NoteAlloc(req.Size, have)
	return p, nil
}

// split carves block b into a used prefix of want bytes and a free
// remainder placed into a bin.
func (m *Manager) split(b heap.Addr, want int64) {
	have := m.v.Size(b)
	rem := b + heap.Addr(want)
	m.v.SetHeader(b, want, true, m.v.PrevUsed(b))
	m.v.SetHeader(rem, have-want, false, true)
	m.v.WriteFooter(rem)
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
		for b := m.large[i]; b != heap.Nil; b = m.v.NextFree(b) {
			m.Charge(mm.CostProbe)
			if m.v.Size(b) >= gross {
				m.unlinkLarge(b, i)
				m.Charge(mm.CostUnlink)
				return b
			}
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
		start, err := m.h.Sbrk(need)
		if err != nil {
			return heap.Nil, err
		}
		m.Charge(mm.CostSbrk)
		if m.top == heap.Nil {
			m.heapStart = start
			m.top = start
			m.v.SetHeader(m.top, int64(m.h.Brk()-start), false, true)
		} else {
			// sbrk extends contiguously past the old break, growing top.
			m.v.SetHeader(m.top, int64(m.h.Brk()-m.top), false, m.v.PrevUsed(m.top))
		}
		m.Charge(mm.CostHeader)
		topSize = m.v.Size(m.top)
	}
	// Carve from the low end of top.
	b := m.top
	prevUsed := m.v.PrevUsed(m.top)
	m.top = b + heap.Addr(gross)
	m.v.SetHeader(m.top, topSize-gross, false, true)
	m.v.SetHeader(b, gross, false, prevUsed) // finishAlloc seals it as used
	m.Charge(mm.CostHeader)
	return b, nil
}

func (m *Manager) topSize() int64 {
	if m.top == heap.Nil {
		return 0
	}
	return m.v.Size(m.top)
}

// Free implements mm.Manager.
func (m *Manager) Free(p heap.Addr) error {
	req, ok := m.live.Remove(p)
	if !ok {
		m.NoteFail()
		return mm.ErrBadFree
	}
	if segGross, isMapped := m.lookupMapped(p); isMapped {
		delete(m.mapped, p)
		if err := m.h.Unmap(m.v.Block(p)); err != nil {
			m.NoteFail()
			return err
		}
		m.Charge(mm.CostTrim)
		m.NoteFree(req, segGross)
		return nil
	}
	b := m.v.Block(p)
	gross := m.v.Size(b)
	m.NoteFree(req, gross)
	if gross <= fastMax {
		// Deferred coalescing: keep the used bit so neighbours skip it.
		m.v.SetNextFree(b, m.fast[fastIndex(gross)])
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
	prevUsed := m.v.PrevUsed(b)
	// Backward merge.
	if !prevUsed {
		prevSize := m.v.PrevFooterSize(b)
		prev := b - heap.Addr(prevSize)
		m.unbin(prev)
		b = prev
		size += prevSize
		prevUsed = m.v.PrevUsed(b)
		m.NoteCoalesce()
	}
	// Forward merge (with a binned block or with top).
	next := b + heap.Addr(size)
	if next == m.top {
		size += m.v.Size(m.top)
		m.top = b
		m.v.SetHeader(b, size, false, prevUsed)
		m.NoteCoalesce()
		m.Charge(mm.CostHeader)
		return
	}
	if next < m.h.Brk() && !m.v.Used(next) {
		m.unbin(next)
		size += m.v.Size(next)
		m.NoteCoalesce()
	}
	m.v.SetHeader(b, size, false, prevUsed)
	m.v.WriteFooterSized(b, size)
	m.setNextPrevUsed(b+heap.Addr(size), false)
	m.Charge(mm.CostHeader)
	m.binFree(b)
}

// consolidate empties the fastbins, fully freeing each entry with
// coalescing (dlmalloc's malloc_consolidate).
func (m *Manager) consolidate() {
	for avail := m.fastMask; avail != 0; avail &= avail - 1 {
		i := bits.TrailingZeros16(avail)
		for b := m.fast[i]; b != heap.Nil; {
			next := m.v.NextFree(b)
			m.Charge(mm.CostProbe)
			m.freeChunk(b, m.v.Size(b))
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
	size := m.v.Size(m.top)
	if size < m.cfg.TrimThreshold {
		return
	}
	keep := m.cfg.TopPad
	release := (size - keep) &^ (heap.Align - 1)
	if release <= 0 {
		return
	}
	if err := m.h.ShrinkBrk(release); err != nil {
		return // cannot trim (should not happen); keep the memory
	}
	m.Charge(mm.CostTrim)
	m.v.SetHeader(m.top, size-release, false, m.v.PrevUsed(m.top))
	m.Charge(mm.CostHeader)
}

// setNextPrevUsed updates the prevUsed bit of the physical neighbour at
// next (or nothing when it is at/past the break). Callers compute next
// from a size they already hold, sparing the header re-read.
func (m *Manager) setNextPrevUsed(next heap.Addr, used bool) {
	if next < m.h.Brk() {
		m.v.SetPrevUsed(next, used)
		m.Charge(mm.CostHeader)
	}
}

// binFree inserts the free block b into the small or large bin for its
// size. Small bins are LIFO; large bins are kept sorted ascending by size
// so bestFit takes the first fit.
func (m *Manager) binFree(b heap.Addr) {
	size := m.v.Size(b)
	if size <= smallMax {
		i := smallIndex(size)
		m.v.SetNextFree(b, m.small[i])
		m.v.SetPrevFree(b, heap.Nil)
		if m.small[i] != heap.Nil {
			m.v.SetPrevFree(m.small[i], b)
		}
		m.setSmallHead(i, b)
		m.Charge(mm.CostLink)
		return
	}
	i := largeIndex(size)
	var prev heap.Addr
	cur := m.large[i]
	for cur != heap.Nil && m.v.Size(cur) < size {
		m.Charge(mm.CostProbe)
		prev, cur = cur, m.v.NextFree(cur)
	}
	m.v.SetNextFree(b, cur)
	m.v.SetPrevFree(b, prev)
	if cur != heap.Nil {
		m.v.SetPrevFree(cur, b)
	}
	if prev == heap.Nil {
		m.setLargeHead(i, b)
	} else {
		m.v.SetNextFree(prev, b)
	}
	m.Charge(mm.CostLink)
}

// unbin removes a known-free block from whichever doubly linked bin holds
// it (used when coalescing neighbours).
func (m *Manager) unbin(b heap.Addr) {
	size := m.v.Size(b)
	next := m.v.NextFree(b)
	prev := m.v.PrevFree(b)
	if prev == heap.Nil {
		if size <= smallMax {
			m.setSmallHead(smallIndex(size), next)
		} else {
			m.setLargeHead(largeIndex(size), next)
		}
	} else {
		m.v.SetNextFree(prev, next)
	}
	if next != heap.Nil {
		m.v.SetPrevFree(next, prev)
	}
	m.Charge(mm.CostUnlink)
}

func (m *Manager) unlinkSmall(b heap.Addr, i int) {
	next := m.v.NextFree(b)
	m.setSmallHead(i, next)
	if next != heap.Nil {
		m.v.SetPrevFree(next, heap.Nil)
	}
}

func (m *Manager) unlinkLarge(b heap.Addr, i int) {
	next := m.v.NextFree(b)
	prev := m.v.PrevFree(b)
	if prev == heap.Nil {
		m.setLargeHead(i, next)
	} else {
		m.v.SetNextFree(prev, next)
	}
	if next != heap.Nil {
		m.v.SetPrevFree(next, prev)
	}
}

// Footprint implements mm.Manager.
func (m *Manager) Footprint() int64 { return m.h.Footprint() }

// MaxFootprint implements mm.Manager.
func (m *Manager) MaxFootprint() int64 { return m.h.MaxFootprint() }

// Reset restores the manager and its heap to the initial state.
func (m *Manager) Reset() {
	m.h.Reset()
	m.heapStart, m.top = heap.Nil, heap.Nil
	m.fast = [nFastBins]heap.Addr{}
	m.small = [nSmall]heap.Addr{}
	m.large = [nLarge]heap.Addr{}
	m.fastMask, m.smallMask, m.largeMask = 0, 0, 0
	m.mapped = make(map[heap.Addr]int64)
	m.live.Reset()
	m.ResetStats()
}

// CheckInvariants walks the managed sbrk region verifying that blocks tile
// it exactly and boundary tags are consistent; it is used by tests after
// torture runs.
func (m *Manager) CheckInvariants() error {
	if m.top == heap.Nil {
		return nil
	}
	end := m.h.Brk()
	foundTop := false
	err := m.v.Walk(m.heapStart, end, func(bi block.BlockInfo) error {
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

// Clone returns a deep copy of the manager over a clone of its heap:
// the copy and the original replay independently. The bins, bitmaps and
// config are plain values; the heap, the mmapped-block table and the
// shadow table need deep copies.
func (m *Manager) Clone() *Manager {
	n := *m
	n.h = m.h.Clone()
	n.v.H = n.h
	if m.mapped != nil {
		n.mapped = make(map[heap.Addr]int64, len(m.mapped))
		for k, v := range m.mapped {
			n.mapped[k] = v
		}
	}
	n.live = m.live.Clone()
	return &n
}

// CloneManager implements mm.Cloner.
func (m *Manager) CloneManager() (mm.Manager, error) { return m.Clone(), nil }

// StateChecksum implements mm.Checksummer by digesting the simulated
// heap, where all in-band allocator state lives.
func (m *Manager) StateChecksum() uint64 { return m.h.Checksum() }

var (
	_ mm.Manager     = (*Manager)(nil)
	_ mm.Cloner      = (*Manager)(nil)
	_ mm.Checksummer = (*Manager)(nil)
)
