package core

import (
	"slices"

	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

// poolKey identifies one pool: the B3 phase (0 unless pools are divided
// per phase) and the B4 class (0 for the any-range single pool, otherwise
// the floor class size).
type poolKey struct {
	phase int
	class int64
}

// pool is one memory pool: an in-band free list plus the roving pointer
// for next fit and the deferred-coalescing list (blocks freed but not yet
// merged, still carrying their used bit, as dlmalloc's fastbins do).
// idx is the pool's position in the sorted key slice (and in the pools
// slice and nonempty bitset that run parallel to it); id is its stable
// creation index, which the free-block side table records.
type pool struct {
	head, tail heap.Addr
	count      int
	rover      heap.Addr
	deferred   heap.Addr
	nDeferred  int
	idx        int
	id         int
}

// poolFor returns (creating on demand) the pool for a key, charging the
// B2 pool-structure lookup cost.
func (m *Custom) poolFor(k poolKey) *pool {
	pos := m.keyPos(k)
	m.chargeLookup(pos)
	if pos < len(m.keys) && m.keys[pos] == k {
		return m.pools[pos]
	}
	pl := &pool{idx: pos, id: len(m.byID)}
	m.byID = append(m.byID, pl)
	m.keys = slices.Insert(m.keys, pos, k)
	m.pools = slices.Insert(m.pools, pos, pl)
	for _, other := range m.pools[pos+1:] {
		other.idx++
	}
	m.ne.InsertZero(pos)
	return pl
}

// chargeLookup charges the B2 cost of finding the pool at key position
// pos: constant for an array of pools, pos+1 probes for a linked list of
// pools walked from its head.
func (m *Custom) chargeLookup(pos int) {
	if m.vec.PoolStruct == dspace.PoolArray {
		m.Charge(mm.CostIndex)
	} else {
		m.ChargeN(mm.CostProbe, int64(pos)+1)
	}
}

// keyPos returns the position of the first key not below k.
func (m *Custom) keyPos(k poolKey) int {
	lo, hi := 0, len(m.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyLess(m.keys[mid], k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func keyLess(a, b poolKey) bool {
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	return a.class < b.class
}

// insertFree places free block b (gross size known) into pool pl honouring
// the A1 structure and C2 ordering decisions, and records pl as b's pool.
func (m *Custom) insertFree(pl *pool, b heap.Addr) {
	if !m.freeKey.Put(b, uint32(pl.id+1)) {
		m.invariant(b, "is free but cannot be recorded in the pool table")
	}
	pl.count++
	m.ne.Set(pl.idx)
	m.Charge(mm.CostLink)
	if pl.head == heap.Nil {
		pl.head, pl.tail = b, b
		m.setNextFree(b, heap.Nil)
		m.setPrevFree(b, heap.Nil)
		return
	}
	switch {
	case m.vec.BlockStructure == dspace.SizeSorted:
		m.insertSorted(pl, b, func(x heap.Addr) bool { return m.v.Size(x) >= m.v.Size(b) })
	case m.vec.FreeOrder == dspace.AddressOrder:
		m.insertSorted(pl, b, func(x heap.Addr) bool { return x > b })
	case m.vec.FreeOrder == dspace.FIFOOrder:
		// Append at tail.
		m.setNextFree(pl.tail, b)
		m.setPrevFree(b, pl.tail)
		m.setNextFree(b, heap.Nil)
		pl.tail = b
	default: // LIFO
		m.setNextFree(b, pl.head)
		m.setPrevFree(b, heap.Nil)
		m.setPrevFree(pl.head, b)
		pl.head = b
	}
}

// insertSorted walks the list charging probes and inserts b before the
// first element satisfying stop.
func (m *Custom) insertSorted(pl *pool, b heap.Addr, stop func(heap.Addr) bool) {
	var prev heap.Addr
	cur := pl.head
	for cur != heap.Nil && !stop(cur) {
		m.Charge(mm.CostProbe)
		prev, cur = cur, m.nextFree(cur)
	}
	m.setNextFree(b, cur)
	m.setPrevFree(b, prev)
	if cur != heap.Nil {
		m.setPrevFree(cur, b)
	} else {
		pl.tail = b
	}
	if prev == heap.Nil {
		pl.head = b
	} else {
		m.setNextFree(prev, b)
	}
}

// unlink removes block b from pool pl. With doubly linked structures it is
// O(1); with singly linked lists the caller provides the predecessor found
// during the search (sprev), matching what the hardware-true structure can
// do.
func (m *Custom) unlink(pl *pool, b, sprev heap.Addr) {
	pl.count--
	m.freeKey.Take(b)
	m.Charge(mm.CostUnlink)
	if pl.rover == b {
		pl.rover = m.nextFree(b)
	}
	if m.doubleLinks() {
		next := m.nextFree(b)
		prev := m.prevFree(b)
		if prev == heap.Nil {
			pl.head = next
		} else {
			m.setNextFree(prev, next)
		}
		if next != heap.Nil {
			m.setPrevFree(next, prev)
		} else {
			pl.tail = prev
		}
	} else {
		next := m.nextFree(b)
		if sprev == heap.Nil {
			pl.head = next
		} else {
			m.setNextFree(sprev, next)
		}
		if pl.tail == b {
			pl.tail = sprev
		}
	}
	if pl.head == heap.Nil {
		m.ne.Clear(pl.idx)
	}
}

// unlinkKnownFree removes a binned block found by address (used when
// coalescing absorbs a neighbour). The owning pool is recorded at bin
// time, and finding it is charged as a pool lookup; only doubly linked
// structures support address unlinking, which the design-space
// constraints guarantee whenever coalescing is on. A block that is free
// in-band but recorded in no pool means the heap and the free lists
// disagree: guessing a pool would corrupt the lists silently, so it is an
// invariant failure.
func (m *Custom) unlinkKnownFree(b heap.Addr) {
	id, ok := m.freeKey.Get(b)
	if !ok {
		m.invariant(b, "is free in-band but binned in no pool")
	}
	pl := m.byID[id-1]
	m.chargeLookup(pl.idx)
	m.unlink(pl, b, heap.Nil)
}

// searchResult carries a fit-search hit: the block and, for singly linked
// lists, its predecessor (needed to unlink).
type searchResult struct {
	b, sprev heap.Addr
	ok       bool
}

// searchPool looks for a free block of at least gross bytes in pl using
// the C1 fit algorithm. Exact fit scans for an exact size match and falls
// back to best fit, the composition the paper's DRR walkthrough implies
// (exact fit to avoid internal fragmentation, with split+coalesce mopping
// up the rest).
func (m *Custom) searchPool(pl *pool, gross int64) searchResult {
	if pl.head == heap.Nil {
		return searchResult{}
	}
	switch m.vec.Fit {
	case dspace.FirstFit:
		return m.scanFirst(pl.head, gross)
	case dspace.NextFit:
		start := pl.rover
		if start == heap.Nil {
			start = pl.head
		}
		if r := m.scanFirst(start, gross); r.ok {
			pl.rover = m.nextFree(r.b)
			return r
		}
		r := m.scanFirst(pl.head, gross) // wrap around
		if r.ok {
			pl.rover = m.nextFree(r.b)
		}
		return r
	case dspace.BestFit, dspace.ExactFit:
		// Exact fit prefers an exact-size block (returned as soon as it
		// is seen) and otherwise degrades to best fit within the probe
		// budget.
		return m.scanBest(pl, gross)
	case dspace.WorstFit:
		return m.scanWorst(pl, gross)
	}
	return searchResult{}
}

// scanFirst returns the first fitting block within the probe budget.
func (m *Custom) scanFirst(from heap.Addr, gross int64) searchResult {
	var prev heap.Addr
	probes := 0
	for b := from; b != heap.Nil && probes < m.par.MaxProbes; b = m.nextFree(b) {
		m.Charge(mm.CostProbe)
		probes++
		if m.sizeOf(b) >= gross {
			return searchResult{b: b, sprev: prev, ok: true}
		}
		prev = b
	}
	return searchResult{}
}

// scanBest finds the smallest fitting block within the probe budget,
// returning immediately on an exact size match. With a size-sorted
// structure the scan stops at the first fit.
func (m *Custom) scanBest(pl *pool, gross int64) searchResult {
	var best, bestPrev, prev heap.Addr
	var bestSize int64
	probes := 0
	for b := pl.head; b != heap.Nil && probes < m.par.MaxProbes; b = m.nextFree(b) {
		m.Charge(mm.CostProbe)
		probes++
		sz := m.sizeOf(b)
		if sz == gross {
			return searchResult{b: b, sprev: prev, ok: true}
		}
		if sz > gross && (best == heap.Nil || sz < bestSize) {
			best, bestPrev, bestSize = b, prev, sz
		}
		if m.vec.BlockStructure == dspace.SizeSorted && sz > gross {
			break // sorted ascending: this is already the best fit
		}
		prev = b
	}
	if best == heap.Nil {
		return searchResult{}
	}
	return searchResult{b: best, sprev: bestPrev, ok: true}
}

func (m *Custom) scanWorst(pl *pool, gross int64) searchResult {
	if m.vec.BlockStructure == dspace.SizeSorted {
		// Largest block is at the tail.
		m.Charge(mm.CostProbe)
		if pl.tail != heap.Nil && m.sizeOf(pl.tail) >= gross {
			return searchResult{b: pl.tail, ok: true}
		}
		return searchResult{}
	}
	var worst, worstPrev, prev heap.Addr
	var worstSize int64
	probes := 0
	for b := pl.head; b != heap.Nil && probes < m.par.MaxProbes; b = m.nextFree(b) {
		m.Charge(mm.CostProbe)
		probes++
		if sz := m.sizeOf(b); sz >= gross && sz > worstSize {
			worst, worstPrev, worstSize = b, prev, sz
		}
		prev = b
	}
	if worst == heap.Nil {
		return searchResult{}
	}
	return searchResult{b: worst, sprev: worstPrev, ok: true}
}

// Link-field helpers: doubly linked structures use both payload link
// slots; singly linked ones only the forward slot. prevFree is only
// meaningful with double links.

func (m *Custom) doubleLinks() bool {
	return m.vec.BlockStructure != dspace.SinglyLinked
}

func (m *Custom) nextFree(b heap.Addr) heap.Addr { return m.v.NextFree(b) }

func (m *Custom) setNextFree(b, to heap.Addr) { m.v.SetNextFree(b, to) }

func (m *Custom) prevFree(b heap.Addr) heap.Addr {
	if !m.doubleLinks() {
		return heap.Nil
	}
	return m.v.PrevFree(b)
}

func (m *Custom) setPrevFree(b, to heap.Addr) {
	if m.doubleLinks() {
		m.v.SetPrevFree(b, to)
	}
}
