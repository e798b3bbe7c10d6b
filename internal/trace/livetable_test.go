package trace

import (
	"maps"
	"math"
	"math/rand"
	"testing"

	"dmmkit/internal/heap"
)

// TestLiveTableForms drives both live-table forms and a Go-map reference
// through seeded random programs of set and take — takes of unknown IDs
// included — and requires them to agree at every step. Halfway through,
// each program clones the table; the clone must keep the state of that
// moment while the original moves on.
func TestLiveTableForms(t *testing.T) {
	const denseIDs = 4096
	// extremes are IDs the hashed form must handle like any other: 0 is
	// the open-addressing table's empty-slot key, negative IDs are not
	// slice-indexable.
	extremes := []int64{0, -1, math.MinInt64, math.MaxInt64}
	forms := []struct {
		name string
		new  func() liveTable
		id   func(*rand.Rand) int64
	}{
		{"dense", func() liveTable { return liveTable{dense: make([]heap.Addr, denseIDs)} },
			func(rng *rand.Rand) int64 { return rng.Int63n(denseIDs) }},
		{"hashed", func() liveTable { return liveTable{} },
			func(rng *rand.Rand) int64 {
				if rng.Intn(16) == 0 {
					return extremes[rng.Intn(len(extremes))]
				}
				return rng.Int63n(1<<16) - 1<<15
			}},
	}
	for _, form := range forms {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			lt, ref := form.new(), map[int64]heap.Addr{}
			var clone liveTable
			var cloneRef map[int64]heap.Addr
			peak := 0
			const ops = 60000
			for op := 0; op < ops; op++ {
				if op == ops/2 {
					clone, cloneRef = lt.clone(), maps.Clone(ref)
				}
				id := form.id(rng)
				// Sets outnumber takes, so the live set grows through
				// several doublings of the hashed form.
				if rng.Intn(5) < 3 {
					p := heap.Addr(rng.Intn(1<<20)+1) * 8
					lt.set(id, p)
					ref[id] = p
				} else {
					if got := lt.take(id); got != ref[id] {
						t.Fatalf("%s seed %d op %d: take(%d) = %#x, want %#x", form.name, seed, op, id, got, ref[id])
					}
					delete(ref, id)
				}
				peak = max(peak, len(ref))
			}
			if form.name == "hashed" && peak < 1<<13 {
				t.Fatalf("seed %d: live set peaked at %d entries; the program does not exercise growth", seed, peak)
			}
			drainLiveTable(t, form.name+" original", &lt, ref)
			drainLiveTable(t, form.name+" clone", &clone, cloneRef)
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
