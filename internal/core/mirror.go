package core

import (
	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

// An unsorted (LIFO or FIFO) pool keeps a host-side mirror of its free
// list, so that fit searches and unlinks never walk simulated memory: the
// in-band link words are still written on every list change, so work and
// heap checksums are those of the in-band list, but the replay path never
// reads them.
//
// The mirror is the list in order, head first, as contiguous entries
// ents[lo:]. LIFO pools push at the head, into room kept in front of lo;
// FIFO pools append at the tail. An unlinked entry becomes a hole (size 0)
// instead of being moved out, so unlinking from the middle of a long list
// costs O(1); the first and last hole of every run of holes record the
// run's length, so a scan steps over a run at once and an unlink finds its
// live neighbours in O(1). The ends of the window are always live: holes
// reaching an end are trimmed off. When holes outnumber the listed blocks
// (or room runs out at the end that grows), the entries are compacted,
// which is amortized over the unlinks or pushes that made the need.
//
// A coalescing manager finds free blocks by address: its free-block table
// maps a listed block to slot+1, where slot, kept in the pool's slots
// beside the block's entry, indexes the manager's table of slots, which
// names the block's pool and its entry's position. Compaction keeps the
// positions current.

// freeEnt is one mirror entry: a listed block and its gross size, or with
// size 0 a hole, where the first and last hole of a run hold the run's
// length in addr. Scans read the sizes, so they lead.
type freeEnt struct {
	size uint32
	addr heap.Addr
}

// mirrorSlot locates a listed block of a coalescing manager's unsorted
// pool: its pool and its entry's position in the pool's mirror.
type mirrorSlot struct {
	pl *pool
	at int
}

// mirrorStats counts the mirrors' upkeep, squeezes and compactions, and
// the searches that ran out of probe budget before the list's tail. Only
// tests read it: they require their lists to be long enough for each.
type mirrorStats struct{ squeezes, compacts, cutoffs int }

// mirrorRoom is the least room a compaction leaves for pushes, and the
// least surplus of holes that triggers one.
const mirrorRoom = 16

// lifo reports whether unsorted pools push at the head.
func (m *Custom) lifo() bool { return m.vec.FreeOrder != dspace.FIFOOrder }

// mirrorPush records free block b, gross bytes, at the head (LIFO) or
// tail (FIFO) of pl's mirror, and in the free-block table when the
// manager records pools.
func (m *Custom) mirrorPush(pl *pool, b heap.Addr, gross int64) {
	var at int
	if m.lifo() {
		if pl.lo == 0 {
			m.compact(pl)
		}
		pl.lo--
		at = pl.lo
	} else {
		if n := len(pl.ents); n == cap(pl.ents) && n > 0 && 2*(pl.lo+pl.holes) >= n {
			m.compact(pl)
		}
		at = len(pl.ents)
		pl.ents = append(pl.ents, freeEnt{})
		if m.recordsFreePools() {
			pl.slots = append(pl.slots, 0)
		}
	}
	pl.ents[at] = freeEnt{size: uint32(gross), addr: b}
	if m.recordsFreePools() {
		s := m.newSlot(pl, at)
		pl.slots[at] = s
		if !m.freeKey.Put(b, s+1) {
			m.invariant(b, "is free but cannot be recorded in the pool table")
		}
	}
}

// newSlot returns a free slot locating entry at of pl.
func (m *Custom) newSlot(pl *pool, at int) uint32 {
	if n := len(m.freeSlots); n > 0 {
		s := m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		m.slots[s] = mirrorSlot{pl, at}
		return s
	}
	m.slots = append(m.slots, mirrorSlot{pl, at})
	return uint32(len(m.slots) - 1)
}

// mirrorDrop turns entry at of pl's mirror into a hole and returns the
// listed blocks before and after it (Nil at the ends of the list) with
// the position of the one after. The entry's slot is released.
func (m *Custom) mirrorDrop(pl *pool, at int) (prev, next heap.Addr, nextAt int) {
	ents := pl.ents
	if m.recordsFreePools() {
		m.freeSlots = append(m.freeSlots, pl.slots[at])
	}
	p, n := at-1, at+1
	if p >= pl.lo && ents[p].size == 0 {
		p -= int(ents[p].addr)
	}
	if n < len(ents) && ents[n].size == 0 {
		n += int(ents[n].addr)
	}
	switch hasPrev, hasNext := p >= pl.lo, n < len(ents); {
	case hasPrev && hasNext:
		run := freeEnt{addr: heap.Addr(n - p - 1)}
		ents[at] = freeEnt{}
		ents[p+1], ents[n-1] = run, run
		pl.holes++
		return ents[p].addr, ents[n].addr, n
	case hasNext: // the head: the holes after it go too
		pl.holes -= n - at - 1
		pl.lo = n
		return heap.Nil, ents[n].addr, n
	case hasPrev: // the tail
		pl.holes -= at - p - 1
		m.truncate(pl, p+1)
		return ents[p].addr, heap.Nil, n
	}
	// The last entry: keep all the room where pushes go.
	pl.holes = 0
	if m.lifo() {
		n := cap(ents)
		if m.recordsFreePools() {
			n = min(n, cap(pl.slots))
		}
		m.truncate(pl, n)
		pl.lo = n
	} else {
		m.truncate(pl, 0)
		pl.lo = 0
	}
	return heap.Nil, heap.Nil, n
}

// truncate sets the length of pl's mirror.
func (m *Custom) truncate(pl *pool, n int) {
	pl.ents = pl.ents[:n]
	if m.recordsFreePools() {
		pl.slots = pl.slots[:n]
	}
}

// mirrorPrev returns the listed block before entry at, or Nil.
func mirrorPrev(pl *pool, at int) heap.Addr {
	p := at - 1
	if p >= pl.lo && pl.ents[p].size == 0 {
		p -= int(pl.ents[p].addr)
	}
	if p < pl.lo {
		return heap.Nil
	}
	return pl.ents[p].addr
}

// mirrorNext returns the position of the listed block after entry at, or
// len(pl.ents) when at is the tail.
func mirrorNext(pl *pool, at int) int {
	n := at + 1
	if n < len(pl.ents) && pl.ents[n].size == 0 {
		n += int(pl.ents[n].addr)
	}
	return n
}

// compact moves pl's listed entries together, leaving room in front of
// them for a LIFO pool's pushes, and updates the rover's position and the
// slots.
func (m *Custom) compact(pl *pool) {
	m.mirrored.compacts++
	rec := m.recordsFreePools()
	// Pack the listed entries down from lo; moving down overwrites only
	// entries already moved or holes.
	w := pl.lo
	for k := pl.lo; k < len(pl.ents); k++ {
		if pl.ents[k].size == 0 {
			continue
		}
		if k == pl.roverAt && pl.rover != heap.Nil {
			pl.roverAt = w
		}
		pl.ents[w] = pl.ents[k]
		if rec {
			pl.slots[w] = pl.slots[k]
		}
		w++
	}
	// Then move them to front.
	front := 0
	if m.lifo() {
		front = pl.count + mirrorRoom
	}
	pl.ents = moveTo(pl.ents[:w], pl.lo, front)
	if rec {
		pl.slots = moveTo(pl.slots[:w], pl.lo, front)
		for k := front; k < len(pl.slots); k++ {
			m.slots[pl.slots[k]].at = k
		}
	}
	if pl.rover != heap.Nil {
		pl.roverAt += front - pl.lo
	}
	pl.lo, pl.holes = front, 0
}

// moveTo returns s[lo:] moved to start at index front, in s's array when
// it has the room.
func moveTo[T any](s []T, lo, front int) []T {
	n := front + len(s) - lo
	t := s[:0]
	if cap(s) < n {
		t = make([]T, 0, 2*n)
	}
	t = t[:n]
	copy(t[front:], s[lo:])
	return t
}

// squeeze moves the listed entries in [from, end) of pl's mirror to the
// end of that range, in order, where entries from and end-1 are listed,
// and returns where entry at went if it is one of them. The holes it
// gathers at the front of the range are trimmed off when from is the
// head, or joined to the run of holes before from otherwise. It keeps the
// holes that a scan steps over few: searches squeeze what they scanned.
func (m *Custom) squeeze(pl *pool, from, end, at int) int {
	m.mirrored.squeezes++
	rec := m.recordsFreePools()
	w := end
	for k := end - 1; k >= from; k-- {
		e := pl.ents[k]
		if e.size == 0 {
			k -= int(e.addr) - 1 // the last hole of a run holds its length
			continue
		}
		w--
		if k == at {
			at = w
		}
		if k == pl.roverAt && pl.rover != heap.Nil {
			pl.roverAt = w
		}
		pl.ents[w] = e
		if rec {
			s := pl.slots[k]
			pl.slots[w] = s
			m.slots[s].at = w
		}
	}
	if from == pl.lo {
		pl.holes -= w - from
		pl.lo = w
		return at
	}
	clear(pl.ents[from:w])
	start := from
	if p := from - 1; pl.ents[p].size == 0 {
		start -= int(pl.ents[p].addr)
	}
	run := freeEnt{addr: heap.Addr(w - start)}
	pl.ents[start], pl.ents[w-1] = run, run
	return at
}

// searchMirror is searchPool over an unsorted pool's mirror, which holds
// listed blocks. A scan that stepped over more than mirrorRoom holes
// squeezes them out of what it scanned.
func (m *Custom) searchMirror(pl *pool, gross int64) searchResult {
	var r searchResult
	from, seen, holes := pl.lo, 0, 0
	switch m.vec.Fit {
	case dspace.FirstFit:
		r, seen, holes = m.mirrorFirst(pl, from, gross)
	case dspace.NextFit:
		// After the hit is unlinked, the rover's predecessor is the hit's.
		if pl.rover != heap.Nil {
			from = pl.roverAt
		}
		r, seen, holes = m.mirrorFirst(pl, from, gross)
		if !r.ok {
			if holes > mirrorRoom {
				m.squeeze(pl, from, from+seen, -1)
			}
			from = pl.lo // wrap around
			r, seen, holes = m.mirrorFirst(pl, from, gross)
		}
	case dspace.BestFit, dspace.ExactFit:
		r, seen, holes = m.mirrorBest(pl, gross)
	case dspace.WorstFit:
		r, seen, holes = m.mirrorWorst(pl, gross)
	}
	if holes > mirrorRoom {
		r.at = m.squeeze(pl, from, from+seen, r.at)
	}
	if r.ok && m.vec.Fit == dspace.NextFit {
		pl.roverAt = mirrorNext(pl, r.at)
		pl.rover, pl.roverPrev = heap.Nil, mirrorPrev(pl, r.at)
		if pl.roverAt < len(pl.ents) {
			pl.rover = pl.ents[pl.roverAt].addr
		}
	}
	return r
}

// The scans below visit holes like entries, so that where the next entry
// is never waits on what was loaded: a hole's size of 0 fits no request
// and counts no probe. The only branches that depend on the sizes are
// taken rarely: the hit, and in best fit a new best candidate. Each
// returns how many entries it visited from where it started, and how many
// of them were holes.

// isProbe is 1 for a listed entry's size and 0 for a hole's. Sizes are
// below 1<<32, so size-1 wraps past 1<<63 only for a hole.
func isProbe(size uint32) int { return 1 - int((uint64(size)-1)>>63) }

// mirrorFirst is first fit over pl's mirror from entry at, which is
// listed: the first block of at least gross bytes within the probe
// budget.
func (m *Custom) mirrorFirst(pl *pool, at int, gross int64) (r searchResult, seen, holes int) {
	budget := m.par.MaxProbes
	if budget <= 0 {
		return r, 0, 0
	}
	ents := pl.ents[at:]
	probes := 0
	//dmm:hotloop
	for i, e := range ents {
		if int64(e.size) >= gross {
			m.ChargeN(mm.CostProbe, int64(probes)+1)
			return searchResult{b: e.addr, at: at + i, size: int64(e.size), ok: true}, i + 1, i - probes
		}
		if probes += isProbe(e.size); probes == budget {
			if i+1 < len(ents) {
				m.mirrored.cutoffs++
			}
			ents = ents[:i+1]
			break
		}
	}
	m.ChargeN(mm.CostProbe, int64(probes))
	return r, len(ents), len(ents) - probes
}

// mirrorBest is best fit over pl's mirror: the first smallest block of at
// least gross bytes within the probe budget, or the first exact one. Each
// larger block is keyed by its excess over gross above its position, so
// the least key names the best fit, the first one on a tie; smaller
// blocks and holes key at 1<<63 or above.
func (m *Custom) mirrorBest(pl *pool, gross int64) (r searchResult, seen, holes int) {
	const posBits = 31 // mirrors are far shorter than 1<<31 entries
	budget := m.par.MaxProbes
	if budget <= 0 {
		return r, 0, 0
	}
	ents := pl.ents[pl.lo:]
	bestKey := uint64(1) << 63
	probes := 0
	//dmm:hotloop
	for i, e := range ents {
		excess := int64(e.size) - gross
		if excess == 0 {
			m.ChargeN(mm.CostProbe, int64(probes)+1)
			return searchResult{b: e.addr, at: pl.lo + i, size: gross, ok: true}, i + 1, i - probes
		}
		bestKey = min(bestKey, uint64((excess-1)<<posBits|int64(i)))
		if probes += isProbe(e.size); probes == budget {
			if i+1 < len(ents) {
				m.mirrored.cutoffs++
			}
			ents = ents[:i+1]
			break
		}
	}
	m.ChargeN(mm.CostProbe, int64(probes))
	if bestKey < 1<<63 {
		best := int(bestKey & (1<<posBits - 1))
		r = searchResult{b: ents[best].addr, at: pl.lo + best, size: int64(ents[best].size), ok: true}
	}
	return r, len(ents), len(ents) - probes
}

// mirrorWorst is worst fit over pl's mirror: the first largest block of
// at least gross bytes within the probe budget.
func (m *Custom) mirrorWorst(pl *pool, gross int64) (r searchResult, seen, holes int) {
	budget := m.par.MaxProbes
	if budget <= 0 {
		return r, 0, 0
	}
	ents := pl.ents[pl.lo:]
	worst, worstSize := -1, int64(0)
	probes := 0
	for i, e := range ents {
		if size := int64(e.size); size >= gross && size > worstSize {
			worst, worstSize = i, size
		}
		if probes += isProbe(e.size); probes == budget {
			if i+1 < len(ents) {
				m.mirrored.cutoffs++
			}
			ents = ents[:i+1]
			break
		}
	}
	m.ChargeN(mm.CostProbe, int64(probes))
	if worst >= 0 {
		r = searchResult{b: ents[worst].addr, at: pl.lo + worst, size: worstSize, ok: true}
	}
	return r, len(ents), len(ents) - probes
}
