package mm

import (
	"math/bits"
	"slices"

	"dmmkit/internal/heap"
)

// Table is an open-addressing hash table from uint64 keys to int64
// values: linear probing, backward-shift deletion (no tombstones), and
// Fibonacci hashing on the high bits of a 64-bit multiply, which spreads
// 8-aligned heap addresses and sequential allocation IDs alike (hashing
// sequential IDs by their low bits makes linear probing pathological).
// It keys the trace replay kernel's live table by allocation ID, and
// holds the entries Shadow's page map refuses. The zero value is an empty
// table.
//
// Key 0 marks an empty slot, so an entry under key 0 is held beside the
// slots.
type Table struct {
	slots   []tableSlot
	n       int  // occupied slots, not counting the key-0 entry
	shift   uint // 64 - log2(len(slots))
	zero    int64
	hasZero bool
}

type tableSlot struct {
	key uint64 // 0 = empty
	val int64
}

const tableMinSize = 16 // power of two

func (t *Table) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> t.shift)
}

// Put maps k to v, replacing any previous value.
func (t *Table) Put(k uint64, v int64) {
	if k == 0 {
		t.zero, t.hasZero = v, true
		return
	}
	if t.n*4 >= len(t.slots)*3 { // load factor 3/4, and initial allocation
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].key != 0 {
		if t.slots[i].key == k {
			t.slots[i].val = v
			return
		}
		i = (i + 1) & mask
	}
	t.slots[i] = tableSlot{key: k, val: v}
	t.n++
}

// Take removes k and returns its value; ok is false when k is absent.
func (t *Table) Take(k uint64) (v int64, ok bool) {
	if k == 0 {
		v, ok = t.zero, t.hasZero
		t.zero, t.hasZero = 0, false
		return v, ok
	}
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].key != k {
		if t.slots[i].key == 0 {
			return 0, false
		}
		i = (i + 1) & mask
	}
	v = t.slots[i].val
	t.n--
	// Backward-shift deletion keeps probe chains intact without
	// tombstones: each following entry whose home slot is outside the
	// cycle (i, j] moves back into the hole.
	j := i
	for {
		t.slots[i] = tableSlot{}
		for {
			j = (j + 1) & mask
			if t.slots[j].key == 0 {
				return v, true
			}
			if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// Has reports whether k is present.
func (t *Table) Has(k uint64) bool {
	if k == 0 {
		return t.hasZero
	}
	if t.n == 0 {
		return false
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// Len returns the number of entries.
func (t *Table) Len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// Clone returns an independent copy of the table.
func (t *Table) Clone() Table {
	c := *t
	c.slots = slices.Clone(t.slots)
	return c
}

// grow doubles the table (or creates it) and rehashes every entry.
func (t *Table) grow() {
	old := t.slots
	size := max(2*len(old), tableMinSize)
	t.slots = make([]tableSlot, size)
	t.shift = uint(64 - bits.Len(uint(size-1)))
	mask := size - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := t.home(e.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// Shadow is debug/measurement bookkeeping mapping live payload addresses to
// their requested sizes. Real embedded allocators keep no such table; it
// exists so managers can report accurate LiveBytes statistics and reject
// bad frees deterministically. It lives outside the simulated arena and is
// deliberately NOT counted in any footprint figure.
//
// Every Alloc and Free crosses it, so it indexes rather than hashes: an
// AddrMap over the heap's break region holds each payload's size+1, and a
// Table holds only what the page map refuses — mapped-segment addresses,
// a payload sharing its granule with a live neighbour 4 bytes away, and
// sizes the page map cannot hold. Payload addresses are never heap.Nil,
// so entries never take the table's key-0 side slot. The zero value keeps
// everything in the table; NewShadow covers a heap's break region.
type Shadow struct {
	pages AddrMap
	over  Table
	low   int // over entries below the page map's limit: they may alias a page slot
}

// NewShadow returns an empty shadow whose page map covers h's break
// region.
func NewShadow(h *heap.Heap) Shadow { return Shadow{pages: NewAddrMap(h)} }

// pageValue reports whether req fits the page map as req+1.
func pageValue(req int64) bool { return req >= 0 && req < MaxAddrMapValue }

// Add records a live payload address with its requested size.
func (s *Shadow) Add(p heap.Addr, req int64) {
	if s.low == 0 && pageValue(req) && s.pages.Put(p, uint32(req+1)) {
		return
	}
	s.addSlow(p, req)
}

// addSlow is Add when the table may hold p or the page map refused it.
func (s *Shadow) addSlow(p heap.Addr, req int64) {
	k := uint64(p)
	if s.over.Has(k) {
		s.over.Put(k, req)
		return
	}
	if pageValue(req) && s.pages.Put(p, uint32(req+1)) {
		return
	}
	s.pages.Take(p) // a live p re-added with a size the page map cannot hold
	s.over.Put(k, req)
	if p < s.pages.limit {
		s.low++
	}
}

// Remove forgets a payload address, returning its requested size. ok is
// false when p is not live (bad or double free).
func (s *Shadow) Remove(p heap.Addr) (req int64, ok bool) {
	if v, ok := s.pages.Take(p); ok {
		return int64(v) - 1, true
	}
	if req, ok = s.over.Take(uint64(p)); ok && p < s.pages.limit {
		s.low--
	}
	return req, ok
}

// Contains reports whether p is live.
func (s *Shadow) Contains(p heap.Addr) bool {
	_, ok := s.pages.Get(p)
	return ok || s.over.Has(uint64(p))
}

// Len returns the number of live blocks.
func (s *Shadow) Len() int { return s.pages.Len() + s.over.Len() }

// Clone returns an independent copy of the table.
func (s *Shadow) Clone() Shadow {
	return Shadow{pages: s.pages.Clone(), over: s.over.Clone(), low: s.low}
}
