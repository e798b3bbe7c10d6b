package search

import (
	"bytes"
	"math/rand"
	"testing"

	"dmmkit/internal/dspace"
)

// syntheticFitness is a deterministic stand-in evaluator: fitness is an
// arbitrary but stable function of the genome, with enough spread that
// selection pressure is real and occasional "failures" exercise the
// Failed path.
func syntheticFitness(v dspace.Vector) Result {
	var foot, work int64 = 1, 0
	for t := 0; t < dspace.NumTrees; t++ {
		l := int64(v.Get(dspace.Tree(t)))
		foot += (l + 1) * int64(t%5+1)
		work += (l*l + 3) * int64(t%3+1)
	}
	return Result{
		Vector:    v,
		Footprint: foot % 9973,
		Work:      work % 7919,
		Failed:    foot%97 == 0,
	}
}

func evaluateBatch(batch []dspace.Vector) []Result {
	out := make([]Result, len(batch))
	for i, v := range batch {
		out[i] = syntheticFitness(v)
	}
	return out
}

// snapStrategy is what the snapshot tests drive: every strategy in this
// package implements both halves.
type snapStrategy interface {
	Strategy
	Snapshotter
}

// runToEnd drives the strategy to completion, returning the flattened
// sequence of proposed vectors.
func runToEnd(t *testing.T, s Strategy) []dspace.Vector {
	t.Helper()
	var proposals []dspace.Vector
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("strategy did not terminate")
		}
		batch := s.Next()
		if len(batch) == 0 {
			return proposals
		}
		proposals = append(proposals, batch...)
		s.Observe(evaluateBatch(batch))
	}
}

// runGenerations drives the strategy through exactly n proposed batches.
func runGenerations(t *testing.T, s Strategy, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		batch := s.Next()
		if len(batch) == 0 {
			t.Fatalf("strategy ended after %d generations, wanted %d", i, n)
		}
		s.Observe(evaluateBatch(batch))
	}
}

// TestCountedSourcePreservesStream pins the compatibility guarantee: a
// rand.Rand over countedSource must emit exactly the stream rand.NewSource
// would, so snapshotting does not change any seeded run's results.
func TestCountedSourcePreservesStream(t *testing.T) {
	want := rand.New(rand.NewSource(42))
	got := rand.New(newCountedSource(42))
	for i := 0; i < 2000; i++ {
		switch i % 3 {
		case 0:
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("draw %d: Int63 = %d, want %d", i, g, w)
			}
		case 1:
			if w, g := want.Intn(7), got.Intn(7); w != g {
				t.Fatalf("draw %d: Intn = %d, want %d", i, g, w)
			}
		default:
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("draw %d: Float64 = %g, want %g", i, g, w)
			}
		}
	}
}

// TestCountedSourceReset pins the fast-forward cursor: resetting to a
// recorded draw count resumes the stream exactly where it left off.
func TestCountedSourceReset(t *testing.T) {
	src := newCountedSource(7)
	for i := 0; i < 137; i++ {
		src.Int63()
	}
	mark := src.n
	var tail []int64
	for i := 0; i < 50; i++ {
		tail = append(tail, src.Int63())
	}

	fresh := newCountedSource(7)
	fresh.reset(mark)
	if fresh.n != mark {
		t.Fatalf("after reset n = %d, want %d", fresh.n, mark)
	}
	for i, want := range tail {
		if got := fresh.Int63(); got != want {
			t.Fatalf("resumed draw %d = %d, want %d", i, got, want)
		}
	}
}

// TestSnapshotResumeIdenticalContinuation is the core resume guarantee:
// snapshot a strategy mid-run, restore into a freshly constructed one,
// and the continuation (every proposal and, for NSGA, the final front)
// is identical to the uninterrupted run.
func TestSnapshotResumeIdenticalContinuation(t *testing.T) {
	cfg := GAConfig{Population: 12, Generations: 10, Patience: 10}
	cases := []struct {
		name string
		mk   func() snapStrategy
	}{
		{"ga", func() snapStrategy { return NewGA(99, cfg) }},
		{"nsga", func() snapStrategy { return NewNSGA(99, cfg) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference run.
			ref := tc.mk()
			refProposals := runToEnd(t, ref)

			// Interrupted run: 3 generations, snapshot, abandon.
			first := tc.mk()
			runGenerations(t, first, 3)
			snap, err := first.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			// Snapshot must not perturb the source strategy either.
			firstTail := runToEnd(t, first)

			// Resume into a fresh strategy.
			resumed := tc.mk()
			if err := resumed.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			resumedTail := runToEnd(t, resumed)

			if !vectorsEqual(firstTail, resumedTail) {
				t.Fatalf("resumed continuation diverged from interrupted strategy's own continuation")
			}
			head := len(refProposals) - len(resumedTail)
			if head < 0 || !vectorsEqual(refProposals[head:], resumedTail) {
				t.Fatalf("resumed continuation diverged from uninterrupted run (head %d, tail %d, total %d)",
					head, len(resumedTail), len(refProposals))
			}

			// Final search products must agree too.
			switch a := ref.(type) {
			case *GA:
				b := resumed.(*GA)
				ab, aok := a.Best()
				bb, bok := b.Best()
				if aok != bok || ab != bb {
					t.Fatalf("resumed best %+v (%v), want %+v (%v)", bb, bok, ab, aok)
				}
			case *NSGA:
				b := resumed.(*NSGA)
				af, bf := a.Front(), b.Front()
				if len(af) != len(bf) {
					t.Fatalf("resumed front has %d results, want %d", len(bf), len(af))
				}
				for i := range af {
					if af[i] != bf[i] {
						t.Fatalf("front[%d] = %+v, want %+v", i, bf[i], af[i])
					}
				}
			}
		})
	}
}

func vectorsEqual(a, b []dspace.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotDeterministicBytes: snapshotting the same state twice
// yields identical bytes (no map-order leakage), so checkpoint files are
// reproducible artifacts.
func TestSnapshotDeterministicBytes(t *testing.T) {
	cfg := GAConfig{Population: 10, Generations: 6, Patience: 6}
	g := NewGA(5, cfg)
	runGenerations(t, g, 2)
	a, err := g.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	b, err := g.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two snapshots of the same state differ:\n%s\n%s", a, b)
	}
}

// TestSnapshotMidGenerationFails pins the generation-barrier contract.
func TestSnapshotMidGenerationFails(t *testing.T) {
	cfg := GAConfig{Population: 8, Generations: 4}
	for _, tc := range []struct {
		name string
		s    snapStrategy
	}{
		{"ga", NewGA(1, cfg)},
		{"nsga", NewNSGA(1, cfg)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch := tc.s.Next()
			if len(batch) == 0 {
				t.Fatal("no first generation")
			}
			if _, err := tc.s.Snapshot(); err == nil {
				t.Fatal("Snapshot mid-generation succeeded, want error")
			}
			// After Observe the barrier is clear again.
			tc.s.Observe(evaluateBatch(batch))
			if _, err := tc.s.Snapshot(); err != nil {
				t.Fatalf("Snapshot after Observe: %v", err)
			}
		})
	}
}

// TestRestoreRejectsBadSnapshots: malformed or mismatched input errors
// out without panicking or corrupting the receiver.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	cfg := GAConfig{Population: 8, Generations: 4}
	gaSnap, err := NewGA(3, cfg).Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	t.Run("kind-mismatch", func(t *testing.T) {
		if err := NewNSGA(3, cfg).Restore(gaSnap); err == nil {
			t.Fatal("NSGA restored a GA snapshot, want error")
		}
		if err := NewExhaustive(8).Restore(gaSnap); err == nil {
			t.Fatal("Exhaustive restored a GA snapshot, want error")
		}
	})
	t.Run("seed-mismatch", func(t *testing.T) {
		if err := NewGA(4, cfg).Restore(gaSnap); err == nil {
			t.Fatal("restore with wrong seed succeeded, want error")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		for _, data := range [][]byte{nil, {}, []byte("{"), []byte("not json"), []byte(`{"kind":"ga"`)} {
			if err := NewGA(3, cfg).Restore(data); err == nil {
				t.Fatalf("restore of %q succeeded, want error", data)
			}
		}
	})
	t.Run("invalid-leaf", func(t *testing.T) {
		// Forge a snapshot whose population genome has an out-of-range leaf.
		forged := []byte(`{"kind":"ga","seed":3,"draws":0,"evaluated":[],` +
			`"pop":[{"v":[255,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"f":1,"w":1}],"gen":1,"stale":0}`)
		if err := NewGA(3, cfg).Restore(forged); err == nil {
			t.Fatal("restore of out-of-range genome succeeded, want error")
		}
	})
	t.Run("unreachable-state", func(t *testing.T) {
		// A running search past its seed generation always has parents,
		// and its counters never go negative: such snapshots are forged,
		// and accepting them used to make the next Next panic.
		for _, tc := range []struct {
			mk   func() snapStrategy
			data string
		}{
			{func() snapStrategy { return NewGA(1, GAConfig{}) }, `{"kind":"ga","seed":1,"gen":1,"pop":[]}`},
			{func() snapStrategy { return NewNSGA(1, GAConfig{}) }, `{"kind":"nsga","seed":1,"gen":1,"pop":[]}`},
			{func() snapStrategy { return NewGA(1, GAConfig{}) }, `{"kind":"ga","seed":1,"gen":-1}`},
			{func() snapStrategy { return NewNSGA(1, GAConfig{}) }, `{"kind":"nsga","seed":1,"gen":2,"stale":-1,` +
				`"pop":[{"v":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"f":1,"w":1}]}`},
		} {
			s := tc.mk()
			if err := s.Restore([]byte(tc.data)); err == nil {
				t.Errorf("restore of %s succeeded, want error", tc.data)
			}
			if batch := s.Next(); len(batch) == 0 {
				t.Errorf("after rejecting %s the fresh strategy proposes nothing", tc.data)
			}
		}
		// A finished search may have no population: it never breeds again.
		g := NewGA(1, GAConfig{})
		if err := g.Restore([]byte(`{"kind":"ga","seed":1,"gen":1,"pop":[],"done":true}`)); err != nil {
			t.Fatalf("restore of a finished empty search: %v", err)
		}
		if batch := g.Next(); batch != nil {
			t.Fatalf("finished search proposed %d vectors", len(batch))
		}
	})
	t.Run("receiver-intact-after-failure", func(t *testing.T) {
		g := NewGA(3, cfg)
		runGenerations(t, g, 1)
		want := runToEnd(t, cloneViaSnapshot(t, g, cfg))
		if err := g.Restore([]byte("garbage")); err == nil {
			t.Fatal("restore of garbage succeeded, want error")
		}
		if got := runToEnd(t, g); !vectorsEqual(got, want) {
			t.Fatal("failed Restore corrupted the receiver")
		}
	})
}

func cloneViaSnapshot(t *testing.T, g *GA, cfg GAConfig) *GA {
	t.Helper()
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	clone := NewGA(g.src.seed, cfg)
	if err := clone.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return clone
}

// TestExhaustiveSnapshotRoundTrip: the exhaustive cursor round-trips, so
// a resumed exhaustive run does not re-propose its sample.
func TestExhaustiveSnapshotRoundTrip(t *testing.T) {
	e := NewExhaustive(16)
	if batch := e.Next(); len(batch) == 0 {
		t.Fatal("no sample proposed")
	}
	e.Observe(nil)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored := NewExhaustive(16)
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if batch := restored.Next(); batch != nil {
		t.Fatalf("restored exhaustive proposed %d vectors, want none", len(batch))
	}

	// A fresh (pre-proposal) snapshot restores to a proposing strategy.
	freshSnap, err := NewExhaustive(16).Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	again := NewExhaustive(16)
	if err := again.Restore(freshSnap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if batch := again.Next(); len(batch) == 0 {
		t.Fatal("restored fresh exhaustive proposed nothing")
	}
}

// TestStrategiesImplementSnapshotter keeps the facade honest: every
// built-in strategy satisfies the checkpoint extension.
func TestStrategiesImplementSnapshotter(t *testing.T) {
	for _, s := range []Strategy{NewExhaustive(8), NewGA(1, GAConfig{}), NewNSGA(1, GAConfig{})} {
		if _, ok := s.(Snapshotter); !ok {
			t.Errorf("%T does not implement Snapshotter", s)
		}
	}
}
