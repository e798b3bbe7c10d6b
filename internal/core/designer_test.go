package core

import (
	"context"
	"strings"
	"testing"

	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/profile"
	"dmmkit/internal/trace"
)

// drrLikeTrace mimics the DRR behaviour: packet buffers of highly variable
// size, enqueued and dequeued in rough FIFO order.
func drrLikeTrace() *trace.Trace {
	b := trace.NewBuilder("drr-like")
	sizes := []int64{40, 64, 552, 576, 1300, 1500, 900, 128, 256, 1400}
	var q []int64
	for i := 0; i < 2000; i++ {
		if len(q) < 40 || i%3 != 0 {
			q = append(q, b.Alloc(sizes[i%len(sizes)], 0))
		}
		if len(q) > 30 {
			b.Free(q[0])
			q = q[1:]
		}
		b.Tick()
	}
	for _, id := range q {
		b.Free(id)
	}
	return b.Build()
}

// uniformTrace allocates a single size (a partition-friendly profile).
func uniformTrace() *trace.Trace {
	b := trace.NewBuilder("uniform")
	var ids []int64
	for i := 0; i < 500; i++ {
		ids = append(ids, b.Alloc(128, 0))
		if len(ids) > 20 {
			b.Free(ids[0])
			ids = ids[1:]
		}
	}
	for _, id := range ids {
		b.Free(id)
	}
	return b.Build()
}

func TestDesignForDRRMatchesPaperWalk(t *testing.T) {
	// Sec. 5 walkthrough: A2=many (variable), A5=split+coalesce,
	// E2=D2=always, E1=D1=many not fixed, B1=single pool, C1=exact fit,
	// A1=doubly linked, A3=header with size+status info.
	p := profile.FromTrace(drrLikeTrace())
	d := DesignFor(p)
	v := d.Vector
	if err := dspace.Validate(&v); err != nil {
		t.Fatalf("designed vector invalid: %v", err)
	}
	checks := []struct {
		tree dspace.Tree
		want dspace.Leaf
	}{
		{dspace.A2BlockSizes, dspace.ManyVarSizes},
		{dspace.A5FlexBlockSize, dspace.SplitCoalesce},
		{dspace.E2SplitWhen, dspace.Always},
		{dspace.D2CoalesceWhen, dspace.Always},
		{dspace.E1MinBlockSizes, dspace.ManyNotFixed},
		{dspace.D1MaxBlockSizes, dspace.ManyNotFixed},
		{dspace.B1PoolDivision, dspace.SinglePool},
		{dspace.C1Fit, dspace.ExactFit},
		{dspace.A1BlockStructure, dspace.DoublyLinked},
		{dspace.A3BlockTags, dspace.HeaderTag},
	}
	for _, c := range checks {
		if got := v.Get(c.tree); got != c.want {
			t.Errorf("%v = %s, paper walkthrough chooses %s",
				c.tree, dspace.LeafName(c.tree, got), dspace.LeafName(c.tree, c.want))
		}
	}
	if len(d.Walk) != dspace.NumTrees {
		t.Errorf("walk has %d steps, want %d", len(d.Walk), dspace.NumTrees)
	}
}

func TestDesignForUniformPicksPartitions(t *testing.T) {
	p := profile.FromTrace(uniformTrace())
	d := DesignFor(p)
	v := d.Vector
	if v.BlockSizes != dspace.OneBlockSize {
		t.Errorf("A2 = %s, want one", dspace.LeafName(dspace.A2BlockSizes, v.BlockSizes))
	}
	if v.Flex != dspace.NoFlex {
		t.Errorf("A5 = %s, want none", dspace.LeafName(dspace.A5FlexBlockSize, v.Flex))
	}
	if v.BlockTags != dspace.NoTags {
		t.Errorf("A3 = %s, want none (no per-block overhead)", dspace.LeafName(dspace.A3BlockTags, v.BlockTags))
	}
	if err := dspace.Validate(&v); err != nil {
		t.Fatalf("designed vector invalid: %v", err)
	}
}

func TestDesignedManagerBeatsBaselinesOnItsProfile(t *testing.T) {
	tr := drrLikeTrace()
	p := profile.FromTrace(tr)
	d := DesignFor(p)
	m, err := d.Build(heap.New(heap.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Run(context.Background(), m, tr, trace.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead() > 1.6 {
		t.Errorf("designed manager overhead %.2f, want close to live bytes", res.Overhead())
	}
}

func TestWrongOrderDesignLosesFlexibility(t *testing.T) {
	// Figure 4: deciding A3 first picks "none" to save header bytes,
	// which forbids split/coalesce downstream.
	p := profile.FromTrace(drrLikeTrace())
	d := WrongOrderDesign(p)
	v := d.Vector
	if err := dspace.Validate(&v); err != nil {
		t.Fatalf("wrong-order vector still must be valid: %v", err)
	}
	if v.BlockTags != dspace.NoTags {
		t.Errorf("A3 = %s, want none (greedy first decision)", dspace.LeafName(dspace.A3BlockTags, v.BlockTags))
	}
	if v.SplitWhen != dspace.Never || v.CoalesceWhen != dspace.Never {
		t.Error("wrong order should have propagated into never split/coalesce")
	}
	// And it must cost footprint on the very profile it was designed for.
	tr := drrLikeTrace()
	right, err := DesignFor(p).Build(heap.New(heap.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := d.Build(heap.New(heap.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	rightRes, err := trace.Run(context.Background(), right, tr, trace.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wrongRes, err := trace.Run(context.Background(), wrong, tr, trace.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if wrongRes.MaxFootprint <= rightRes.MaxFootprint {
		t.Errorf("wrong order footprint %d <= right order %d; Figure 4 expects a penalty",
			wrongRes.MaxFootprint, rightRes.MaxFootprint)
	}
}

func TestDesignStringShowsReasons(t *testing.T) {
	p := profile.FromTrace(drrLikeTrace())
	d := DesignFor(p)
	s := d.String()
	for _, frag := range []string{"exact fit", "coalescing", "single pool"} {
		if !strings.Contains(s, frag) {
			t.Errorf("decision log missing %q:\n%s", frag, s)
		}
	}
}

func phasedTrace() *trace.Trace {
	b := trace.NewBuilder("phased")
	// Phase 0: uniform small blocks, fully freed.
	b.SetPhase(0)
	var ids []int64
	for i := 0; i < 300; i++ {
		ids = append(ids, b.Alloc(64, 0))
	}
	for _, id := range ids {
		b.Free(id)
	}
	// Phase 1: highly variable blocks.
	b.SetPhase(1)
	ids = nil
	sizes := []int64{100, 999, 4000, 40, 2222, 808}
	for i := 0; i < 300; i++ {
		ids = append(ids, b.Alloc(sizes[i%len(sizes)], 1))
		if len(ids) > 20 {
			b.Free(ids[0])
			ids = ids[1:]
		}
	}
	for _, id := range ids {
		b.Free(id)
	}
	return b.Build()
}

func TestBuildGlobalComposesAtomicManagers(t *testing.T) {
	tr := phasedTrace()
	p := profile.FromTrace(tr)
	g, designs, err := BuildGlobal("Custom", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) != 2 {
		t.Fatalf("got %d designs, want 2 (one per phase)", len(designs))
	}
	// Phase 0 is uniform: its atomic manager should be a partition-style
	// design; phase 1 variable: a flexible design.
	if designs[0].Vector.Flex != dspace.NoFlex {
		t.Error("phase 0 design should need no flexible block manager")
	}
	if designs[1].Vector.Flex != dspace.SplitCoalesce {
		t.Error("phase 1 design should split+coalesce")
	}
	res, err := trace.Run(context.Background(), g, tr, trace.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFootprint < tr.MaxLiveBytes() {
		t.Errorf("global footprint %d below live bytes %d", res.MaxFootprint, tr.MaxLiveBytes())
	}
	if g.Stats().LiveBytes != 0 {
		t.Errorf("LiveBytes = %d after full replay, want 0", g.Stats().LiveBytes)
	}
}

func TestGlobalRoutesFreesAcrossPhases(t *testing.T) {
	h0, h1 := heap.New(heap.Config{}), heap.New(heap.Config{})
	p := profile.FromTrace(drrLikeTrace())
	m0, err := DesignFor(p).Build(h0)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := DesignFor(p).Build(h1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGlobal("G", map[int]mm.Manager{0: m0, 1: m1})
	if err != nil {
		t.Fatal(err)
	}
	// Allocate in phase 0, free during phase 1: the handle must route
	// back to phase 0's manager.
	ha, err := g.Alloc(mm.Request{Size: 100, Phase: 0})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := g.Alloc(mm.Request{Size: 100, Phase: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Free(ha); err != nil {
		t.Fatal(err)
	}
	if err := g.Free(hb); err != nil {
		t.Fatal(err)
	}
	if m0.Stats().Frees != 1 || m1.Stats().Frees != 1 {
		t.Errorf("frees routed wrong: m0=%d m1=%d", m0.Stats().Frees, m1.Stats().Frees)
	}
	if err := g.Free(ha); err == nil {
		t.Error("double free through global succeeded")
	}
	// Unknown phases fall back to the lowest phase's manager.
	if _, err := g.Alloc(mm.Request{Size: 50, Phase: 99}); err != nil {
		t.Errorf("fallback phase alloc failed: %v", err)
	}
}

func TestGlobalFootprintIsSumHighWater(t *testing.T) {
	h0, h1 := heap.New(heap.Config{}), heap.New(heap.Config{})
	p := profile.FromTrace(uniformTrace())
	m0, _ := DesignFor(p).Build(h0)
	m1, _ := DesignFor(p).Build(h1)
	g, err := NewGlobal("G", map[int]mm.Manager{0: m0, 1: m1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Alloc(mm.Request{Size: 128, Phase: 0})
	if err := g.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Alloc(mm.Request{Size: 128, Phase: 1}); err != nil {
		t.Fatal(err)
	}
	if g.Footprint() != m0.Footprint()+m1.Footprint() {
		t.Error("Footprint is not the sum of atomic footprints")
	}
	if g.MaxFootprint() > m0.MaxFootprint()+m1.MaxFootprint() {
		t.Error("MaxFootprint exceeds the sum of atomic high-water marks")
	}
}
