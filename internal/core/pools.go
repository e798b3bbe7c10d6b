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
// roverPrev is the rover's predecessor on the list (K&R's freep), which a
// singly linked list needs to unlink a hit on the rover itself. idx is
// the pool's position in the sorted key slice (and in the pools slice and
// nonempty bitset that run parallel to it); id is its stable creation
// index, which the free-block side table records.
//
// A sorted list is mirrored host-side so that insertion, unlink and fit
// find their place without walking simulated memory: runs indexes a
// size-sorted list (A1 = size-sorted), addrs an address-ordered one
// (C2 = address order). They charge the probes the in-band walk would.
type pool struct {
	head, tail heap.Addr
	count      int
	rover      heap.Addr
	roverPrev  heap.Addr
	deferred   heap.Addr
	nDeferred  int
	idx        int
	id         int
	runs       []sizeRun
	addrs      []heap.Addr
}

// sizeRun is a maximal run of equal-size blocks on a size-sorted list: n
// blocks of gross size size, from first to last in list order.
type sizeRun struct {
	size        int64
	first, last heap.Addr
	n           int
}

// runAtLeast returns the position of the first run of at least size
// bytes.
func (pl *pool) runAtLeast(size int64) int {
	lo, hi := 0, len(pl.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pl.runs[mid].size < size {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// blocksBefore returns the number of blocks ahead of run i on the list,
// counting no further than limit.
func (pl *pool) blocksBefore(i, limit int) int {
	n := 0
	for _, r := range pl.runs[:i] {
		if n += r.n; n >= limit {
			return limit
		}
	}
	return n
}

// neighbours returns the list neighbours of an insertion in front of run
// i: the last block of run i-1 and the first of run i.
func (pl *pool) neighbours(i int) (prev, next heap.Addr) {
	if i > 0 {
		prev = pl.runs[i-1].last
	}
	if i < len(pl.runs) {
		next = pl.runs[i].first
	}
	return prev, next
}

// poolFor returns (creating on demand) the pool for a key, charging the
// B2 pool-structure lookup cost. Consecutive requests mostly name the
// same pool, so the last one found is tried before the key search; its
// lookup is charged at its position all the same.
func (m *Custom) poolFor(k poolKey) *pool {
	if pl := m.lastPool; pl != nil && m.keys[pl.idx] == k {
		m.chargeLookup(pl.idx)
		return pl
	}
	pos := m.keyPos(k)
	m.chargeLookup(pos)
	if pos < len(m.keys) && m.keys[pos] == k {
		m.lastPool = m.pools[pos]
		return m.lastPool
	}
	pl := &pool{idx: pos, id: len(m.byID)}
	m.lastPool = pl
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
	if m.recordsFreePools() && !m.freeKey.Put(b, uint32(pl.id+1)) {
		m.invariant(b, "is free but cannot be recorded in the pool table")
	}
	pl.count++
	m.ne.Set(pl.idx)
	m.Charge(mm.CostLink)
	switch {
	case m.sizeSorted():
		m.insertBySize(pl, b)
	case m.addressOrdered():
		m.insertByAddress(pl, b)
	case m.vec.FreeOrder == dspace.FIFOOrder:
		m.linkBetween(pl, b, pl.tail, heap.Nil)
	default: // LIFO
		m.linkBetween(pl, b, heap.Nil, pl.head)
	}
}

// insertBySize links b in front of its run of equal-size blocks, or
// before the first larger run: where a walk for the first block at least
// as large stops. It charges a probe per block ahead, as that walk does.
func (m *Custom) insertBySize(pl *pool, b heap.Addr) {
	size := m.V.Size(b)
	i := pl.runAtLeast(size)
	m.ChargeN(mm.CostProbe, int64(pl.blocksBefore(i, pl.count)))
	prev, next := pl.neighbours(i)
	if i < len(pl.runs) && pl.runs[i].size == size {
		pl.runs[i].first = b
		pl.runs[i].n++
	} else {
		pl.runs = slices.Insert(pl.runs, i, sizeRun{size: size, first: b, last: b, n: 1})
	}
	m.linkBetween(pl, b, prev, next)
}

// insertByAddress links b before the first higher address, charging a
// probe per lower-addressed block, as the walk to it does.
func (m *Custom) insertByAddress(pl *pool, b heap.Addr) {
	i, _ := slices.BinarySearch(pl.addrs, b)
	m.ChargeN(mm.CostProbe, int64(i))
	var prev, next heap.Addr
	if i > 0 {
		prev = pl.addrs[i-1]
	}
	if i < len(pl.addrs) {
		next = pl.addrs[i]
	}
	pl.addrs = slices.Insert(pl.addrs, i, b)
	m.linkBetween(pl, b, prev, next)
}

// linkBetween links free block b into pl between its list neighbours
// prev and next (Nil at either end of the list).
func (m *Custom) linkBetween(pl *pool, b, prev, next heap.Addr) {
	m.V.SetNextFree(b, next)
	m.V.SetPrevFree(b, prev)
	if next != heap.Nil {
		m.V.SetPrevFree(next, b)
		if next == pl.rover {
			pl.roverPrev = b
		}
	} else {
		pl.tail = b
	}
	if prev == heap.Nil {
		pl.head = b
	} else {
		m.V.SetNextFree(prev, b)
	}
}

// unlink removes block b from pool pl. With doubly linked structures it is
// O(1); with singly linked lists the caller provides the predecessor found
// during the search (sprev), matching what the hardware-true structure can
// do.
func (m *Custom) unlink(pl *pool, b, sprev heap.Addr) {
	pl.count--
	if m.recordsFreePools() {
		m.freeKey.Take(b)
	}
	m.Charge(mm.CostUnlink)
	prev, next := sprev, m.V.NextFree(b)
	if m.doubleLinks() {
		prev = m.V.PrevFree(b)
	}
	switch b {
	case pl.rover:
		pl.rover = next // its predecessor stays roverPrev
	case pl.roverPrev:
		pl.roverPrev = prev
	}
	switch {
	case m.sizeSorted():
		m.unindexSize(pl, b, prev, next)
	case m.addressOrdered():
		i, ok := slices.BinarySearch(pl.addrs, b)
		if !ok {
			m.invariant(b, "is unlinked from an address-ordered pool that does not index it")
		}
		pl.addrs = slices.Delete(pl.addrs, i, i+1)
	}
	if prev == heap.Nil {
		pl.head = next
	} else {
		m.V.SetNextFree(prev, next)
	}
	if next != heap.Nil {
		m.V.SetPrevFree(next, prev)
	} else {
		pl.tail = prev
	}
	if pl.head == heap.Nil {
		m.ne.Clear(pl.idx)
	}
}

// unindexSize drops b, listed between prev and next, from its run.
func (m *Custom) unindexSize(pl *pool, b, prev, next heap.Addr) {
	size := m.V.Size(b)
	i := pl.runAtLeast(size)
	if i == len(pl.runs) || pl.runs[i].size != size {
		m.invariant(b, "is unlinked from a size-sorted pool that indexes no run of its size")
	}
	r := &pl.runs[i]
	switch {
	case r.n == 1:
		pl.runs = slices.Delete(pl.runs, i, i+1)
		return
	case b == r.first:
		r.first = next
	case b == r.last:
		r.last = prev
	}
	r.n--
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
		if m.sizeSorted() {
			return m.fitBySize(pl, gross)
		}
		return m.scanFirst(pl.head, heap.Nil, gross)
	case dspace.NextFit:
		// After the hit is unlinked, the rover's predecessor is the hit's.
		start, prev := pl.rover, pl.roverPrev
		if start == heap.Nil {
			start, prev = pl.head, heap.Nil
		}
		r := m.scanFirst(start, prev, gross)
		if !r.ok {
			r = m.scanFirst(pl.head, heap.Nil, gross) // wrap around
		}
		if r.ok {
			pl.rover, pl.roverPrev = m.V.NextFree(r.b), r.sprev
		}
		return r
	case dspace.BestFit, dspace.ExactFit:
		// Exact fit prefers an exact-size block (returned as soon as it
		// is seen) and otherwise degrades to best fit within the probe
		// budget.
		if m.sizeSorted() {
			return m.fitBySize(pl, gross)
		}
		return m.scanBest(pl, gross)
	case dspace.WorstFit:
		return m.scanWorst(pl, gross)
	}
	return searchResult{}
}

// fitBySize is first, best and exact fit over a size-sorted list: the
// first block of the first run of at least gross bytes, found within the
// probe budget. It charges what the scan from the head charges: a probe
// per block up to and including the hit, or the whole budget (at most
// the list) on a miss.
func (m *Custom) fitBySize(pl *pool, gross int64) searchResult {
	budget := max(m.par.MaxProbes, 0)
	i := pl.runAtLeast(gross)
	pos := pl.blocksBefore(i, budget)
	if i == len(pl.runs) || pos == budget {
		m.ChargeN(mm.CostProbe, int64(min(pl.count, budget)))
		return searchResult{}
	}
	m.ChargeN(mm.CostProbe, int64(pos)+1)
	prev, b := pl.neighbours(i)
	return searchResult{b: b, sprev: prev, ok: true}
}

// scanFirst returns the first fitting block within the probe budget,
// scanning from block from, whose list predecessor is prev.
func (m *Custom) scanFirst(from, prev heap.Addr, gross int64) searchResult {
	probes := 0
	for b := from; b != heap.Nil && probes < m.par.MaxProbes; b = m.V.NextFree(b) {
		m.Charge(mm.CostProbe)
		probes++
		sz, ok := m.headerSize(b)
		if !ok {
			sz = m.untaggedSize(b)
		}
		if sz >= gross {
			return searchResult{b: b, sprev: prev, ok: true}
		}
		prev = b
	}
	return searchResult{}
}

// scanBest finds the smallest fitting block within the probe budget,
// returning immediately on an exact size match.
func (m *Custom) scanBest(pl *pool, gross int64) searchResult {
	var best, bestPrev, prev heap.Addr
	var bestSize int64
	probes := 0
	for b := pl.head; b != heap.Nil && probes < m.par.MaxProbes; b = m.V.NextFree(b) {
		m.Charge(mm.CostProbe)
		probes++
		sz, ok := m.headerSize(b)
		if !ok {
			sz = m.untaggedSize(b)
		}
		if sz == gross {
			return searchResult{b: b, sprev: prev, ok: true}
		}
		if sz > gross && (best == heap.Nil || sz < bestSize) {
			best, bestPrev, bestSize = b, prev, sz
		}
		prev = b
	}
	if best == heap.Nil {
		return searchResult{}
	}
	return searchResult{b: best, sprev: bestPrev, ok: true}
}

func (m *Custom) scanWorst(pl *pool, gross int64) searchResult {
	if m.sizeSorted() {
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
	for b := pl.head; b != heap.Nil && probes < m.par.MaxProbes; b = m.V.NextFree(b) {
		m.Charge(mm.CostProbe)
		probes++
		sz, ok := m.headerSize(b)
		if !ok {
			sz = m.untaggedSize(b)
		}
		if sz >= gross && sz > worstSize {
			worst, worstPrev, worstSize = b, prev, sz
		}
		prev = b
	}
	if worst == heap.Nil {
		return searchResult{}
	}
	return searchResult{b: worst, sprev: worstPrev, ok: true}
}

// sizeSorted and addressOrdered name the two sorted list disciplines; a
// size-sorted list ignores the C2 order.
func (m *Custom) sizeSorted() bool { return m.vec.BlockStructure == dspace.SizeSorted }

func (m *Custom) addressOrdered() bool {
	return !m.sizeSorted() && m.vec.FreeOrder == dspace.AddressOrder
}

// doubleLinks reports whether free blocks keep a back link: doubly
// linked structures use both payload link slots, singly linked ones only
// the forward slot.
func (m *Custom) doubleLinks() bool {
	return m.vec.BlockStructure != dspace.SinglyLinked
}
