package trace

import (
	"math"
	"math/rand"
	"testing"

	"dmmkit/internal/heap"
)

// TestLiveTableForms drives both live-table forms and a Go-map reference
// through seeded random programs of set and take — takes of unknown IDs
// included — and requires them to agree at every step, and to hold the
// same entries at the end. The strided program spreads its live IDs over
// far more pages than the page budget allows, so that IDs in the
// directory's range go to the hashed table too; the pages ever allocated
// must stay within the budget of the most IDs ever paged.
func TestLiveTableForms(t *testing.T) {
	const denseIDs = 4096
	// edges are IDs the paged form must handle like any other: the first
	// and last ID of a page, the last ID below the directory's cap and the
	// first two at or past it, which go to the hashed table; 0 is also
	// the open-addressing table's empty-slot key, and negative IDs are not
	// slice-indexable.
	edges := []int64{0, 1, livePageLen - 1, livePageLen, 2*livePageLen - 1, liveCap - livePageLen,
		liveCap - 1, liveCap, liveCap + 1, -1, math.MinInt64, math.MaxInt64}
	forms := []struct {
		name string
		new  func() liveTable
		id   func(*rand.Rand) int64
	}{
		{"dense", func() liveTable { return liveTable{dense: make([]heap.Addr, denseIDs)} },
			func(rng *rand.Rand) int64 { return rng.Int63n(denseIDs) }},
		{"paged", func() liveTable { return liveTable{} },
			func(rng *rand.Rand) int64 {
				if rng.Intn(16) == 0 {
					return edges[rng.Intn(len(edges))]
				}
				return rng.Int63n(1<<16) - 1<<15
			}},
		{"paged-strided", func() liveTable { return liveTable{} },
			func(rng *rand.Rand) int64 { return rng.Int63n(1<<14)*livePageLen + rng.Int63n(4) }},
	}
	for _, form := range forms {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			lt, ref := form.new(), map[int64]heap.Addr{}
			peak, peakPaged, overBudget := 0, 0, false
			const ops = 60000
			for op := 0; op < ops; op++ {
				id := form.id(rng)
				// Sets outnumber takes, so the live set grows through
				// several doublings of the hashed table and the paged
				// directory.
				if rng.Intn(5) < 3 {
					p := heap.Addr(rng.Intn(1<<20)+1) * 8
					lt.set(id, p)
					ref[id] = p
					overBudget = overBudget || uint64(id) < liveCap && lt.hashed.Has(uint64(id))
				} else {
					if got := lt.take(id); got != ref[id] {
						t.Fatalf("%s seed %d op %d: take(%d) = %#x, want %#x", form.name, seed, op, id, got, ref[id])
					}
					delete(ref, id)
				}
				peak, peakPaged = max(peak, len(ref)), max(peakPaged, lt.paged)
			}
			if form.name != "dense" && peak < 1<<13 {
				t.Fatalf("%s seed %d: live set peaked at %d entries; the program does not exercise growth", form.name, seed, peak)
			}
			if limit := liveFloorPages + peakPaged/liveIDsPerPage; len(lt.pages) > limit {
				t.Fatalf("%s seed %d: %d pages allocated, the budget of %d paged IDs allows %d", form.name, seed, len(lt.pages), peakPaged, limit)
			}
			if wantOver := form.name == "paged-strided"; overBudget != wantOver {
				t.Fatalf("%s seed %d: an in-range ID went to the hashed table: %v, want %v", form.name, seed, overBudget, wantOver)
			}
			drainLiveTable(t, form.name, &lt, ref)
		}
	}
}

// drainLiveTable takes every reference ID out of lt, checking its address,
// and then requires lt to be empty.
func drainLiveTable(t *testing.T, name string, lt *liveTable, ref map[int64]heap.Addr) {
	t.Helper()
	for id, want := range ref {
		if got := lt.take(id); got != want {
			t.Fatalf("%s: take(%d) = %#x, want %#x", name, id, got, want)
		}
		if got := lt.take(id); got != heap.Nil {
			t.Fatalf("%s: second take(%d) = %#x, want Nil", name, id, got)
		}
	}
	if n := lt.hashed.Len(); n != 0 {
		t.Fatalf("%s: %d hashed entries left after draining", name, n)
	}
	for d, w := range lt.dir {
		if w != 0 {
			t.Fatalf("%s: directory word %d is %#x after draining", name, d, w)
		}
	}
	if lt.paged != 0 {
		t.Fatalf("%s: %d paged IDs counted after draining", name, lt.paged)
	}
	if len(lt.spare) != len(lt.pages) {
		t.Fatalf("%s: %d of %d pages spare after draining", name, len(lt.spare), len(lt.pages))
	}
	for id, p := range lt.dense {
		if p != heap.Nil {
			t.Fatalf("%s: dense id %d still live after draining", name, id)
		}
	}
}

// TestNewLiveTableForm pins which form the in-memory pre-scan picks.
func TestNewLiveTableForm(t *testing.T) {
	alloc := func(ids ...int64) []Event {
		events := make([]Event, len(ids))
		for i, id := range ids {
			events[i] = Event{Kind: KindAlloc, ID: id, Size: 8}
		}
		return events
	}
	for _, tc := range []struct {
		name   string
		events []Event
		dense  bool
	}{
		{"empty", nil, true},
		{"sequential", alloc(0, 1, 2, 3), true},
		{"mildly sparse", alloc(0, 60, 3), true},
		{"negative", alloc(0, -1), false},
		{"sparse", alloc(0, 1<<20), false},
	} {
		if got := newLiveTable(tc.events).dense != nil; got != tc.dense {
			t.Errorf("%s: dense = %v, want %v", tc.name, got, tc.dense)
		}
	}
}
