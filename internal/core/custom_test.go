package core

import (
	"math/rand"
	"testing"

	"dmmkit/internal/alloctest"
	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/profile"
	"dmmkit/internal/registry"
)

// Vectors used across the tests.

func drrVector() dspace.Vector {
	return dspace.Vector{
		BlockStructure: dspace.DoublyLinked,
		BlockSizes:     dspace.ManyVarSizes,
		BlockTags:      dspace.HeaderTag,
		RecordedInfo:   dspace.RecordSizeStatusPrev,
		Flex:           dspace.SplitCoalesce,
		PoolDivision:   dspace.SinglePool,
		PoolStruct:     dspace.PoolArray,
		PoolPhase:      dspace.SharedPools,
		PoolRange:      dspace.AnyRange,
		Fit:            dspace.ExactFit,
		FreeOrder:      dspace.LIFOOrder,
		MaxBlockSizes:  dspace.ManyNotFixed,
		CoalesceWhen:   dspace.Always,
		MinBlockSizes:  dspace.ManyNotFixed,
		SplitWhen:      dspace.Always,
	}
}

func leaLikeVector() dspace.Vector {
	v := drrVector()
	v.BlockTags = dspace.HeaderFooter
	v.RecordedInfo = dspace.RecordSizeStatus
	v.Fit = dspace.BestFit
	v.CoalesceWhen = dspace.Deferred
	return v
}

func kingsleyLikeVector() dspace.Vector {
	return dspace.Vector{
		BlockStructure: dspace.SinglyLinked,
		BlockSizes:     dspace.ManyFixedSizes,
		BlockTags:      dspace.HeaderTag,
		RecordedInfo:   dspace.RecordSize,
		Flex:           dspace.NoFlex,
		PoolDivision:   dspace.PoolPerClass,
		PoolStruct:     dspace.PoolArray,
		PoolPhase:      dspace.SharedPools,
		PoolRange:      dspace.Pow2Classes,
		Fit:            dspace.FirstFit,
		FreeOrder:      dspace.LIFOOrder,
		MaxBlockSizes:  dspace.OneResultSize,
		CoalesceWhen:   dspace.Never,
		MinBlockSizes:  dspace.OneResultSize,
		SplitWhen:      dspace.Never,
	}
}

func partitionVector() dspace.Vector {
	// An untagged fixed-size partition manager (RTEMS-partition-like).
	return dspace.Vector{
		BlockStructure: dspace.SinglyLinked,
		BlockSizes:     dspace.ManyFixedSizes,
		BlockTags:      dspace.NoTags,
		RecordedInfo:   dspace.RecordNone,
		Flex:           dspace.NoFlex,
		PoolDivision:   dspace.PoolPerClass,
		PoolStruct:     dspace.PoolArray,
		PoolPhase:      dspace.SharedPools,
		PoolRange:      dspace.FixedSizePerPool,
		Fit:            dspace.FirstFit,
		FreeOrder:      dspace.LIFOOrder,
		MaxBlockSizes:  dspace.OneResultSize,
		CoalesceWhen:   dspace.Never,
		MinBlockSizes:  dspace.OneResultSize,
		SplitWhen:      dspace.Never,
	}
}

func mustNew(t *testing.T, vec dspace.Vector, par Params) *Custom {
	t.Helper()
	m, err := NewCustom(heap.New(heap.Config{}), vec, par)
	if err != nil {
		t.Fatalf("NewCustom: %v", err)
	}
	return m
}

func TestConformanceDRRVector(t *testing.T) {
	alloctest.Run(t, func() mm.Manager {
		m, err := NewCustom(heap.New(heap.Config{}), drrVector(), Params{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}, alloctest.Options{})
}

func TestConformanceLeaLikeVector(t *testing.T) {
	alloctest.Run(t, func() mm.Manager {
		m, err := NewCustom(heap.New(heap.Config{}), leaLikeVector(), Params{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}, alloctest.Options{})
}

func TestConformanceKingsleyLikeVector(t *testing.T) {
	alloctest.Run(t, func() mm.Manager {
		m, err := NewCustom(heap.New(heap.Config{}), kingsleyLikeVector(), Params{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}, alloctest.Options{MaxSize: 32 << 10})
}

func TestConformancePartitionVector(t *testing.T) {
	alloctest.Run(t, func() mm.Manager {
		m, err := NewCustom(heap.New(heap.Config{}), partitionVector(), Params{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}, alloctest.Options{MaxSize: 32 << 10})
}

// TestConformanceRegistryCustom runs the suite on the registry-built
// "custom" manager over the quick DRR profile, the atomic Custom that
// Table 1 replays: a double, wild or bad free counts FailedOps once.
func TestConformanceRegistryCustom(t *testing.T) {
	p := profile.FromTrace(goldenVectorsTrace(t))
	alloctest.Run(t, func() mm.Manager {
		m, err := registry.NewManager("custom", nil, p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}, alloctest.Options{})
}

func TestInvalidVectorRejected(t *testing.T) {
	vec := drrVector()
	vec.BlockTags = dspace.NoTags // split+coalesce without tags: invalid
	if _, err := NewCustom(heap.New(heap.Config{}), vec, Params{}); err == nil {
		t.Fatal("invalid vector accepted")
	}
}

func TestExactFitAvoidsInternalFragmentation(t *testing.T) {
	m := mustNew(t, drrVector(), Params{})
	sizes := []int64{40, 576, 1500, 40, 1500, 576}
	var ps []heap.Addr
	for _, s := range sizes {
		p, err := m.Alloc(mm.Request{Size: s})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	s := m.Stats()
	// Header is 8 bytes (size + prevsize); blocks are 8-aligned.
	if f := s.InternalFrag(); f > 0.20 {
		t.Errorf("InternalFrag = %.3f, want < 0.20 for exact-fit variable sizes", f)
	}
	for _, p := range ps {
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestImmediateCoalesceAndTrimReturnsMemory(t *testing.T) {
	m := mustNew(t, drrVector(), Params{})
	var ps []heap.Addr
	for i := 0; i < 200; i++ {
		p, err := m.Alloc(mm.Request{Size: 1000})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	peak := m.Footprint()
	for _, p := range ps {
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Coalesces == 0 {
		t.Error("no coalescing recorded")
	}
	if m.Footprint() >= peak/10 {
		t.Errorf("footprint %d not returned to system (peak %d); the paper's custom managers release coalesced chunks", m.Footprint(), peak)
	}
}

func TestFootprintTracksLiveAcrossMixShift(t *testing.T) {
	// The paper's DRR argument: with variable sizes and immediate
	// split+coalesce, memory freed by one size mix is reused by the
	// next, unlike segregated free lists.
	m := mustNew(t, drrVector(), Params{})
	phase := func(size int64, n int) {
		var ps []heap.Addr
		for i := 0; i < n; i++ {
			p, err := m.Alloc(mm.Request{Size: size})
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			if err := m.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	phase(1400, 100) // ~140KB live
	after1 := m.MaxFootprint()
	phase(560, 250) // same live volume, different size
	phase(48, 2900)
	if m.MaxFootprint() > after1*3/2 {
		t.Errorf("MaxFootprint grew from %d to %d across mix shifts; reuse failed", after1, m.MaxFootprint())
	}
}

func TestKingsleyLikeVectorMatchesKingsleyShape(t *testing.T) {
	m := mustNew(t, kingsleyLikeVector(), Params{})
	p, err := m.Alloc(mm.Request{Size: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if g := m.Stats().GrossLive; g != 2048 {
		t.Errorf("GrossLive = %d, want 2048 (pow2 class)", g)
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if m.Footprint() == 0 {
		t.Error("pow2-class manager returned memory; Kingsley-like vectors never release")
	}
}

func TestDeferredCoalescingConsolidates(t *testing.T) {
	vec := leaLikeVector()
	m := mustNew(t, vec, Params{CoalesceEveryN: 8})
	var ps []heap.Addr
	for i := 0; i < 32; i++ {
		p, err := m.Alloc(mm.Request{Size: 500})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Coalesces == 0 {
		t.Error("deferred coalescing never consolidated")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDeferredExactReuseSkipsCoalescing(t *testing.T) {
	m := mustNew(t, leaLikeVector(), Params{CoalesceEveryN: 1000})
	p1, _ := m.Alloc(mm.Request{Size: 500})
	if _, err := m.Alloc(mm.Request{Size: 500}); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p1); err != nil {
		t.Fatal(err)
	}
	before := m.Stats().Coalesces
	q, err := m.Alloc(mm.Request{Size: 500})
	if err != nil {
		t.Fatal(err)
	}
	if q != p1 {
		t.Errorf("deferred list did not recycle exact block: %#x vs %#x", q, p1)
	}
	if m.Stats().Coalesces != before {
		t.Error("exact deferred reuse triggered coalescing")
	}
}

func TestSplitWhenNeverWastesRestOfBlock(t *testing.T) {
	vec := drrVector()
	vec.Flex = dspace.CoalesceOnly
	vec.SplitWhen = dspace.Never
	vec.MinBlockSizes = dspace.OneResultSize
	m := mustNew(t, vec, Params{})
	p1, err := m.Alloc(mm.Request{Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(mm.Request{Size: 64}); err != nil { // pin
		t.Fatal(err)
	}
	if err := m.Free(p1); err != nil {
		t.Fatal(err)
	}
	// Allocating a small block from the binned 4KB block must NOT split.
	if _, err := m.Alloc(mm.Request{Size: 100}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Splits != 0 {
		t.Error("split happened despite E2=never")
	}
	if g := m.Stats().GrossLive; g < 4096 {
		t.Errorf("GrossLive = %d; expected whole 4KB block consumed by the small request", g)
	}
}

func TestFitAlgorithms(t *testing.T) {
	build := func(fit dspace.Leaf) (*Custom, []heap.Addr) {
		vec := drrVector()
		vec.Fit = fit
		vec.SplitWhen = dspace.Never
		vec.CoalesceWhen = dspace.Never
		vec.Flex = dspace.NoFlex
		vec.MinBlockSizes = dspace.OneResultSize
		vec.MaxBlockSizes = dspace.OneResultSize
		m := mustNew(t, vec, Params{})
		// Free blocks of sizes 5000, 2000, 3000 separated by pins.
		var frees []heap.Addr
		for _, s := range []int64{5000, 2000, 3000} {
			p, err := m.Alloc(mm.Request{Size: s})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Alloc(mm.Request{Size: 32}); err != nil {
				t.Fatal(err)
			}
			frees = append(frees, p)
		}
		for _, p := range frees {
			if err := m.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		return m, frees
	}

	m, frees := build(dspace.BestFit)
	q, err := m.Alloc(mm.Request{Size: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if q != frees[1] {
		t.Errorf("best fit chose %#x, want the 2000-byte block %#x", q, frees[1])
	}

	m, frees = build(dspace.WorstFit)
	q, err = m.Alloc(mm.Request{Size: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if q != frees[0] {
		t.Errorf("worst fit chose %#x, want the 5000-byte block %#x", q, frees[0])
	}

	m, frees = build(dspace.FirstFit)
	q, err = m.Alloc(mm.Request{Size: 1500})
	if err != nil {
		t.Fatal(err)
	}
	// LIFO order: the most recently freed (3000) is scanned first and fits.
	if q != frees[2] {
		t.Errorf("first fit chose %#x, want the head block %#x", q, frees[2])
	}

	m, frees = build(dspace.ExactFit)
	q, err = m.Alloc(mm.Request{Size: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if q != frees[1] {
		t.Errorf("exact fit chose %#x, want the exact 2000-byte block %#x", q, frees[1])
	}
}

func TestNextFitRovesForward(t *testing.T) {
	vec := drrVector()
	vec.Fit = dspace.NextFit
	m := mustNew(t, vec, Params{})
	var ps []heap.Addr
	for i := 0; i < 6; i++ {
		p, err := m.Alloc(mm.Request{Size: 1000})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
		if _, err := m.Alloc(mm.Request{Size: 32}); err != nil { // pins
			t.Fatal(err)
		}
	}
	for _, p := range ps {
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	a, err := m.Alloc(mm.Request{Size: 900})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(mm.Request{Size: 900})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("next fit returned the same block twice")
	}
}

func TestPerPhasePoolsSegregate(t *testing.T) {
	vec := drrVector()
	vec.PoolPhase = dspace.PoolsPerPhase
	m := mustNew(t, vec, Params{})
	p0, err := m.Alloc(mm.Request{Size: 1000, Phase: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p0); err != nil {
		t.Fatal(err)
	}
	// Phase 1 allocations must not reuse phase 0's pool content directly
	// (disjoint pool sets), though the wilderness is shared.
	if _, err := m.Alloc(mm.Request{Size: 1000, Phase: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSizeSortedStructureKeepsOrder(t *testing.T) {
	vec := drrVector()
	vec.BlockStructure = dspace.SizeSorted
	vec.Fit = dspace.BestFit
	vec.CoalesceWhen = dspace.Never
	vec.Flex = dspace.SplitOnly
	vec.MaxBlockSizes = dspace.OneResultSize
	m := mustNew(t, vec, Params{})
	var ps []heap.Addr
	for _, s := range []int64{3000, 1000, 2000, 500} {
		p, err := m.Alloc(mm.Request{Size: s})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
		if _, err := m.Alloc(mm.Request{Size: 32}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range ps {
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// Best fit on a sorted list stops at the first fit; a 900-byte
	// request must take the 1000-byte block.
	q, err := m.Alloc(mm.Request{Size: 900})
	if err != nil {
		t.Fatal(err)
	}
	if q != ps[1] {
		t.Errorf("sorted best fit chose %#x, want the 1000-byte block %#x", q, ps[1])
	}
}

// TestDesignSpaceSample torture-tests a deterministic sample of the valid
// design space with random requests: every sampled vector must behave as
// a correct allocator.
func TestDesignSpaceSample(t *testing.T) {
	var vectors []dspace.Vector
	i := 0
	dspace.Enumerate(func(v dspace.Vector) bool {
		if i%2400 == 0 { // ~60 samples over the whole space
			vectors = append(vectors, v)
		}
		i++
		return true
	})
	if len(vectors) < 40 {
		t.Fatalf("sampled only %d vectors", len(vectors))
	}
	for vi, vec := range vectors {
		m, err := NewCustom(heap.New(heap.Config{}), vec, Params{})
		if err != nil {
			t.Fatalf("vector %d invalid at construction: %v\n%v", vi, err, vec)
		}
		rng := rand.New(rand.NewSource(int64(vi)))
		type blk struct {
			p heap.Addr
			n int64
		}
		var live []blk
		var liveBytes int64
		for op := 0; op < 300; op++ {
			if len(live) == 0 || rng.Intn(100) < 55 {
				n := rng.Int63n(2000) + 1
				p, err := m.Alloc(mm.Request{Size: n, Tag: rng.Intn(3), Phase: op / 100})
				if err != nil {
					t.Fatalf("vector %d (%v): op %d Alloc(%d): %v", vi, vec, op, n, err)
				}
				live = append(live, blk{p, n})
				liveBytes += n
			} else {
				j := rng.Intn(len(live))
				if err := m.Free(live[j].p); err != nil {
					t.Fatalf("vector %d (%v): op %d Free: %v", vi, vec, op, err)
				}
				liveBytes -= live[j].n
				live = append(live[:j], live[j+1:]...)
			}
			if s := m.Stats(); s.LiveBytes != liveBytes {
				t.Fatalf("vector %d (%v): op %d LiveBytes=%d want %d", vi, vec, op, s.LiveBytes, liveBytes)
			}
		}
		for _, b := range live {
			if err := m.Free(b.p); err != nil {
				t.Fatalf("vector %d (%v): final Free: %v", vi, vec, err)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("vector %d (%v): invariants: %v", vi, vec, err)
		}
		if s := m.Stats(); s.LiveBytes != 0 || s.LiveBlocks != 0 {
			t.Fatalf("vector %d (%v): leftover live bytes", vi, vec)
		}
	}
}

func TestDirectThresholdUsesSegments(t *testing.T) {
	m := mustNew(t, drrVector(), Params{DirectThreshold: 64 << 10})
	p, err := m.Alloc(mm.Request{Size: 300000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Heap().SysStats().Maps == 0 {
		t.Error("large request did not use a direct segment")
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if m.Footprint() != 0 {
		t.Errorf("Footprint = %d after direct free, want 0", m.Footprint())
	}
}
