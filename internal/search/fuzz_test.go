package search

import (
	"encoding/json"
	"testing"
)

// FuzzRestoreSnapshot feeds arbitrary bytes to Restore on both genetic
// strategies and drives whatever it accepts through a Next/Observe loop
// to the end of the search. The Snapshotter contract is that Restore
// never panics, whatever the input; that has to hold for the search it
// leaves behind too, since dmmexplore -resume restores from a file.
func FuzzRestoreSnapshot(f *testing.F) {
	cfg := GAConfig{Population: 6, Generations: 6}
	// Accepted before Restore checked for unreachable states; the next
	// Next then panicked in rand.Intn.
	f.Add([]byte(`{"kind":"ga","seed":1,"gen":1,"pop":[]}`))
	f.Add([]byte(`{"kind":"nsga","seed":1,"gen":1,"pop":[]}`))
	f.Add([]byte(`{"kind":"ga","seed":1,"gen":-3,"stale":-1}`))
	f.Add([]byte(`{"kind":"nsga","seed":1,"gen":1,"pop":[{"v":[9,9,9,9,9,9,9,9,9,9,9,9,9,9,9]}]}`))
	f.Add([]byte(`{"kind":"ga","seed":1,"gen":3,"exhausted":true,"pop":[{"v":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"x":true}]}`))
	for _, s := range []snapStrategy{NewGA(1, cfg), NewNSGA(1, cfg)} {
		for gens := 0; gens < 3; gens++ {
			snap, err := s.Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(snap)
			batch := s.Next()
			if len(batch) == 0 {
				break
			}
			s.Observe(goldenEvaluate(batch))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe geneticSnapshot
		if json.Unmarshal(data, &probe) == nil && probe.Draws > 1<<20 {
			// Restore replays the random stream draw by draw up to the
			// recorded cursor: huge cursors are slow, not unsafe.
			t.Skip("draw cursor too large to fast-forward quickly")
		}
		for _, s := range []snapStrategy{NewGA(1, cfg), NewNSGA(1, cfg)} {
			if s.Restore(data) != nil {
				continue
			}
			for i := 0; ; i++ {
				if i > cfg.Generations {
					t.Fatalf("restored %T proposed more than %d generations", s, cfg.Generations)
				}
				batch := s.Next()
				if len(batch) == 0 {
					break
				}
				s.Observe(goldenEvaluate(batch))
			}
		}
	})
}
