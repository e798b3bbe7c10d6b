package core

import (
	"dmmkit/internal/block"
	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

// This file implements the A5 flexible-block-size mechanisms — splitting
// (category E) and coalescing (category D) — plus the wilderness chunk and
// system trimming used by variable-size managers.

// maySplit reports whether policy E2/E1 allows splitting a block of size
// have to satisfy want, i.e. whether the remainder is an allowed result
// size.
func (m *Custom) maySplit(have, want int64) bool {
	if m.vec.SplitWhen == dspace.Never {
		return false
	}
	rem := have - want
	min := m.V.L.MinBlock()
	if rem < min {
		return false
	}
	if m.vec.SplitWhen == dspace.Deferred && rem < m.par.DeferredSplitMin {
		return false
	}
	switch m.vec.MinBlockSizes {
	case dspace.OneResultSize:
		// Only one remainder size is allowed: the smallest class (or the
		// minimum block when unclassed).
		allowed := min
		if len(m.par.ClassSizes) > 0 {
			allowed = m.par.ClassSizes[0]
		}
		return rem == allowed
	case dspace.ManyFixedSet:
		return m.isClassSize(rem)
	default: // ManyNotFixed
		return true
	}
}

// split carves free block b of have bytes (not in any list) into a
// want-byte prefix and a free remainder, which is binned.
func (m *Custom) split(b heap.Addr, have, want int64) {
	rem := b + heap.Addr(want)
	m.V.SetHeader(b, want, false, m.prevUsedBit(b))
	m.writeNeighborInfo(b, want)
	m.V.SetHeader(rem, have-want, false, true)
	m.writeNeighborInfo(rem, have-want)
	m.NoteSplit()
	m.binFree(rem, have-want)
}

// mayCoalesce reports whether policy D1 allows a merge producing result
// bytes.
func (m *Custom) mayCoalesce(result int64) bool {
	switch m.vec.MaxBlockSizes {
	case dspace.OneResultSize:
		return result <= m.par.MaxCoalesceSize
	case dspace.ManyFixedSet:
		return m.isClassSize(result)
	default:
		return true
	}
}

// coalesce merges block b of size bytes (free, not in any list) with
// free physical neighbours where policy permits, returning the merged
// block address and size. The caller insert/returns the result.
func (m *Custom) coalesce(b heap.Addr, size int64) (heap.Addr, int64) {
	// Backward merge.
	for {
		prev, ok := m.prevNeighbor(b)
		if !ok || m.V.Used(prev) || prev == m.top {
			break
		}
		merged := m.V.Size(prev) + size
		if !m.mayCoalesce(merged) {
			break
		}
		m.unlinkKnownFree(prev)
		b, size = prev, merged
		m.V.SetHeader(b, size, false, m.prevUsedBit(b))
		m.NoteCoalesce()
	}
	// Forward merge. It grows b without moving it, so b's prevUsed bit
	// holds from here on.
	prevUsed := m.prevUsedBit(b)
	for {
		next := b + heap.Addr(size)
		if next >= m.V.H.Brk() || next == m.top {
			break
		}
		if m.V.Used(next) {
			break
		}
		merged := size + m.V.Size(next)
		if !m.mayCoalesce(merged) {
			break
		}
		m.unlinkKnownFree(next)
		size = merged
		m.V.SetHeader(b, size, false, prevUsed)
		m.NoteCoalesce()
	}
	// Merge into the wilderness when adjacent.
	if m.top != heap.Nil && b+heap.Addr(size) == m.top {
		size += m.V.Size(m.top)
		m.setTop(b, size, prevUsed)
		m.NoteCoalesce()
		return b, -1 // absorbed by top: nothing to bin
	}
	m.V.SetHeader(b, size, false, prevUsed)
	m.writeNeighborInfo(b, size)
	m.markNeighborOfFree(b, size, false)
	m.Charge(mm.CostHeader)
	return b, size
}

// prevNeighbor locates the previous physical block when it is known to be
// free, using whatever backward information the layout provides: a footer
// (A3=header+footer, valid only on free blocks) or a prev-size header
// field (A4 includes prevsize). ok is false when b is the first managed
// block, the previous block is in use, or the layout lacks backward info.
func (m *Custom) prevNeighbor(b heap.Addr) (heap.Addr, bool) {
	if b == m.heapStart || b == heap.Nil {
		return heap.Nil, false
	}
	if m.hasStatus() && m.V.PrevUsed(b) {
		return heap.Nil, false
	}
	var ps int64
	switch {
	case m.V.L.Tags == block.TagsBoth:
		ps = m.V.PrevFooterSize(b)
	case m.hasPrevSize():
		ps = m.V.PrevSizeField(b)
	default:
		return heap.Nil, false
	}
	if ps <= 0 || heap.Addr(ps) > b-m.heapStart {
		return heap.Nil, false
	}
	return b - heap.Addr(ps), true
}

// prevUsedBit reads the prevUsed bit when the layout records status; it
// defaults to true otherwise (preventing spurious merges).
func (m *Custom) prevUsedBit(b heap.Addr) bool {
	return !m.hasStatus() || m.V.PrevUsed(b)
}

// writeNeighborInfo maintains the backward-coalescing info for the block
// after b, whose header records size: the footer of b (when free, footer
// layouts) and/or the prev-size field of the next block (prev-size
// layouts).
func (m *Custom) writeNeighborInfo(b heap.Addr, size int64) {
	if m.V.L.Tags == block.TagsBoth {
		m.V.WriteFooterSized(b, size)
		m.Charge(mm.CostHeader)
	}
	next := b + heap.Addr(size)
	if next < m.V.H.Brk() && m.hasPrevSize() {
		m.V.SetPrevSize(next, size)
		m.Charge(mm.CostHeader)
	}
}

// markNeighborOfFree updates the next neighbour's prevUsed bit after b,
// whose header records size, changes status.
func (m *Custom) markNeighborOfFree(b heap.Addr, size int64, used bool) {
	if !m.hasStatus() {
		return
	}
	next := b + heap.Addr(size)
	if next < m.V.H.Brk() {
		m.V.SetPrevUsed(next, used)
		m.Charge(mm.CostHeader)
	}
}

// binFree inserts free block b, gross bytes, into the pool for its size
// and phase.
func (m *Custom) binFree(b heap.Addr, gross int64) {
	k := m.keyFor(m.phaseOf(b), m.floorClass(gross))
	m.insertFree(m.poolFor(k), b)
}

// setTop installs the wilderness chunk at b with the given size, keeping
// its header (and footer, for boundary-tag layouts) consistent.
func (m *Custom) setTop(b heap.Addr, size int64, prevUsed bool) {
	m.top = b
	m.V.SetHeader(b, size, false, prevUsed)
	if m.V.L.Tags == block.TagsBoth {
		m.V.WriteFooterSized(b, size)
	}
	m.Charge(mm.CostHeader)
}

// carveTop satisfies gross bytes from the wilderness, extending the break
// as needed. Only variable-range managers use a wilderness.
func (m *Custom) carveTop(gross int64) (heap.Addr, error) {
	min := m.V.L.MinBlock()
	if m.topSize() < gross+min {
		need := gross + min - m.topSize() + m.par.TopPad
		start, err := m.V.H.Sbrk(need)
		if err != nil {
			return heap.Nil, err
		}
		m.Charge(mm.CostSbrk)
		if m.top == heap.Nil {
			if m.heapStart == heap.Nil {
				m.heapStart = start
			}
			m.setTop(start, int64(m.V.H.Brk()-start), true)
		} else {
			m.setTop(m.top, int64(m.V.H.Brk()-m.top), m.prevUsedBit(m.top))
		}
	}
	b := m.top
	prevUsed := m.prevUsedBit(m.top)
	topSize := m.V.Size(m.top)
	m.setTop(b+heap.Addr(gross), topSize-gross, true)
	m.V.SetHeader(b, gross, false, prevUsed)
	m.Charge(mm.CostHeader)
	return b, nil
}

func (m *Custom) topSize() int64 {
	if m.top == heap.Nil {
		return 0
	}
	return m.V.Size(m.top)
}

// maybeTrim returns the tail of an oversized wilderness to the system —
// the paper's "when large coalesced chunks of memory are not used, they
// are returned back to the system".
func (m *Custom) maybeTrim() {
	if m.top == heap.Nil {
		return
	}
	size := m.V.Size(m.top)
	if size < m.par.TrimThreshold {
		return
	}
	keep := m.V.L.MinBlock()
	release := (size - keep) &^ (heap.Align - 1)
	if release <= 0 {
		return
	}
	if err := m.V.H.ShrinkBrk(release); err != nil {
		return
	}
	m.Charge(mm.CostTrim)
	m.setTop(m.top, size-release, m.prevUsedBit(m.top))
}

// deferFree pushes b, gross bytes, onto its pool's deferred list (used
// bit kept set so neighbours skip it until consolidation).
func (m *Custom) deferFree(b heap.Addr, gross int64) {
	pl := m.poolFor(m.keyFor(m.phaseOf(b), m.floorClass(gross)))
	m.V.SetNextFree(b, pl.deferred)
	pl.deferred = b
	pl.nDeferred++
	m.Charge(mm.CostLink)
}

// consolidate drains every deferred list, coalescing each block and
// binning the results (dlmalloc's malloc_consolidate generalized to the
// D2=deferred leaf).
func (m *Custom) consolidate() {
	// Coalescing may add pools: iterate over a snapshot, kept on the
	// manager so consolidation does not allocate.
	m.snapshot = append(m.snapshot[:0], m.pools...)
	for _, pl := range m.snapshot {
		for b := pl.deferred; b != heap.Nil; {
			next := m.V.NextFree(b)
			m.Charge(mm.CostProbe)
			m.V.SetUsed(b, false)
			if merged, size := m.coalesce(b, m.V.Size(b)); size >= 0 {
				m.binFree(merged, size)
			}
			b = next
		}
		pl.deferred = heap.Nil
		pl.nDeferred = 0
	}
}
