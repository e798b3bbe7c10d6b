package core

import (
	"context"
	"sync"
	"testing"

	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	workpool "dmmkit/internal/pool"
	"dmmkit/internal/profile"
	"dmmkit/internal/search"
	"dmmkit/internal/trace"
)

// TestMirrorLongLists replays the quick DRR trace against single-pool
// unsorted managers of every fit, free order and link structure, with
// coalescing on (doubly linked only: a singly linked list cannot unlink a
// neighbour) and off, with and without splitting, calling CheckInvariants every 1,000 events, so
// that every unsorted mirror is checked against its in-band list while the
// lists grow past the probe budget. The design-space sweep replays too
// short a prefix for that. The budget is 16 probes rather than the
// default 64, which the coalescing lists of first and next fit never run
// out of on this trace. Each vector must cut a search off at the budget,
// and the vectors together must squeeze and compact their mirrors: those
// paths only run on long lists.
func TestMirrorLongLists(t *testing.T) {
	tr := goldenVectorsTrace(t)
	fits := []dspace.Leaf{dspace.FirstFit, dspace.NextFit, dspace.BestFit, dspace.ExactFit, dspace.WorstFit}
	var vecs []dspace.Vector
	for _, fit := range fits {
		for _, order := range []dspace.Leaf{dspace.LIFOOrder, dspace.FIFOOrder} {
			for _, c := range []struct{ links, flex dspace.Leaf }{
				{dspace.SinglyLinked, dspace.NoFlex}, {dspace.SinglyLinked, dspace.SplitOnly},
				{dspace.DoublyLinked, dspace.NoFlex}, {dspace.DoublyLinked, dspace.SplitCoalesce},
			} {
				fix := search.Fixed{
					dspace.A1BlockStructure: c.links,
					dspace.A2BlockSizes:     dspace.ManyVarSizes,
					dspace.A5FlexBlockSize:  c.flex,
					dspace.B1PoolDivision:   dspace.SinglePool,
					dspace.B4PoolRange:      dspace.AnyRange,
					dspace.C1Fit:            fit,
					dspace.C2FreeOrder:      order,
				}
				if c.flex == dspace.SplitCoalesce {
					fix[dspace.D2CoalesceWhen] = dspace.Always
				}
				v := search.Sample(1, fix)
				if len(v) != 1 {
					t.Fatalf("no valid vector with %v", fix)
				}
				vecs = append(vecs, v[0])
			}
		}
	}
	var (
		mu    sync.Mutex
		total mirrorStats
	)
	prof := profile.FromTrace(tr)
	traits := traitsOf(prof)
	err := workpool.Run(context.Background(), 0, len(vecs), func(i int) error {
		par := deriveParams(vecs[i], traits, prof)
		par.MaxProbes = 16
		m, err := NewCustom(heap.New(heap.Config{}), vecs[i], par)
		if err != nil {
			return err
		}
		if !m.unsorted {
			t.Errorf("%v: not an unsorted manager", m.Vector())
			return nil
		}
		r := trace.NewReplayer(m, tr.Name, trace.RunOpts{})
		const every = 1000
		for at := 0; at < len(tr.Events); at += every {
			end := min(at+every, len(tr.Events))
			if err := r.Apply(tr.Events[at:end]); err != nil {
				t.Errorf("%v: replay: %v", m.Vector(), err)
				return nil
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("%v after %d events: %v", m.Vector(), end, err)
				return nil
			}
		}
		st := m.mirrored
		if st.cutoffs == 0 {
			t.Errorf("%v: no search ran out of its %d-probe budget; the lists stay too short", m.Vector(), m.par.MaxProbes)
		}
		mu.Lock()
		defer mu.Unlock()
		total.squeezes += st.squeezes
		total.compacts += st.compacts
		total.cutoffs += st.cutoffs
		if testing.Verbose() {
			t.Logf("%v: %+v", m.Vector(), st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.squeezes == 0 || total.compacts == 0 {
		t.Errorf("over all vectors: %+v; want squeezes and compactions", total)
	}
}
