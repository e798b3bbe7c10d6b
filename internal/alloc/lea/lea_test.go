package lea

import (
	"math/rand"
	"testing"

	"dmmkit/internal/alloctest"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

func factory() mm.Manager { return New(heap.New(heap.Config{}), Config{}) }

func TestConformance(t *testing.T) {
	alloctest.Run(t, factory, alloctest.Options{MaxSize: 32 << 10})
}

// newMgr returns a manager with a small top pad so tests can reason about
// footprints precisely (the glibc default pads every extension by 128 KiB).
func newMgr() *Manager { return New(heap.New(heap.Config{}), Config{TopPad: 4096}) }

func TestSplitProducesRemainder(t *testing.T) {
	m := newMgr()
	p, err := m.Alloc(mm.Request{Size: 10000})
	if err != nil {
		t.Fatal(err)
	}
	// Pin a block after it so the free block cannot merge into top.
	if _, err := m.Alloc(mm.Request{Size: 600}); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	// The 10000-byte block is binned; a smaller request must split it.
	q, err := m.Alloc(mm.Request{Size: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("small alloc did not reuse the binned block: %#x vs %#x", q, p)
	}
	if m.Stats().Splits == 0 {
		t.Error("no split recorded")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestImmediateCoalesceOfMediumBlocks(t *testing.T) {
	m := newMgr()
	var ps []heap.Addr
	for i := 0; i < 8; i++ {
		p, err := m.Alloc(mm.Request{Size: 1000})
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
		t.Error("freeing adjacent medium blocks did not coalesce")
	}
	// After coalescing into top and trimming logic, a big allocation must
	// fit without growing the footprint.
	before := m.Footprint()
	if _, err := m.Alloc(mm.Request{Size: 7500}); err != nil {
		t.Fatal(err)
	}
	if m.Footprint() > before {
		t.Errorf("coalesced space not reused: footprint %d -> %d", before, m.Footprint())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFastbinDeferral(t *testing.T) {
	m := newMgr()
	p1, _ := m.Alloc(mm.Request{Size: 32})
	p2, _ := m.Alloc(mm.Request{Size: 32})
	_ = p2
	if err := m.Free(p1); err != nil {
		t.Fatal(err)
	}
	coalBefore := m.Stats().Coalesces
	// Tiny free must be deferred (no coalescing) and recycled exactly.
	q, err := m.Alloc(mm.Request{Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	if q != p1 {
		t.Errorf("fastbin did not recycle LIFO: got %#x, want %#x", q, p1)
	}
	if m.Stats().Coalesces != coalBefore {
		t.Error("tiny free coalesced immediately; dlmalloc defers")
	}
}

func TestConsolidationUnderMemoryPressure(t *testing.T) {
	m := newMgr()
	var tiny []heap.Addr
	for i := 0; i < 200; i++ {
		p, err := m.Alloc(mm.Request{Size: 40})
		if err != nil {
			t.Fatal(err)
		}
		tiny = append(tiny, p)
	}
	for _, p := range tiny {
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// Fastbin frees are deferred; a large allocation that would
	// otherwise extend the break must consolidate them instead of
	// growing the footprint.
	before := m.Footprint()
	if _, err := m.Alloc(mm.Request{Size: int64(before) - 4096}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Coalesces == 0 {
		t.Error("memory pressure did not consolidate fastbins")
	}
	if m.Footprint() > before {
		t.Errorf("footprint grew from %d to %d despite reusable fastbin memory", before, m.Footprint())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestTrimReturnsMemory(t *testing.T) {
	m := newMgr()
	var ps []heap.Addr
	for i := 0; i < 100; i++ {
		p, err := m.Alloc(mm.Request{Size: 4000})
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
	if m.Footprint() >= peak {
		t.Errorf("footprint %d not trimmed below peak %d", m.Footprint(), peak)
	}
	if m.Heap().SysStats().Shrinks == 0 {
		t.Error("no break shrink recorded")
	}
}

func TestMmapThreshold(t *testing.T) {
	m := newMgr()
	p, err := m.Alloc(mm.Request{Size: 300000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Heap().SysStats().Maps == 0 {
		t.Error("large request did not use a mapped segment")
	}
	m.Heap().Fill(p, 300000, 0x77)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if m.Heap().SysStats().Unmaps == 0 {
		t.Error("mapped block not returned on free")
	}
	if m.Footprint() != 0 {
		t.Errorf("Footprint = %d after unmap, want 0", m.Footprint())
	}
}

func TestBestFitPrefersSmallest(t *testing.T) {
	m := newMgr()
	// Build two free blocks of different sizes separated by live blocks.
	big, _ := m.Alloc(mm.Request{Size: 5000})
	pin1, _ := m.Alloc(mm.Request{Size: 600})
	small, _ := m.Alloc(mm.Request{Size: 2000})
	pin2, _ := m.Alloc(mm.Request{Size: 600})
	_ = pin1
	_ = pin2
	if err := m.Free(big); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(small); err != nil {
		t.Fatal(err)
	}
	q, err := m.Alloc(mm.Request{Size: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if q != small {
		t.Errorf("best fit chose %#x, want the smaller candidate %#x", q, small)
	}
}

func TestHeapWalkAfterTorture(t *testing.T) {
	m := newMgr()
	rng := rand.New(rand.NewSource(99))
	var live []heap.Addr
	for i := 0; i < 5000; i++ {
		if len(live) == 0 || rng.Intn(100) < 55 {
			n := rng.Int63n(3000) + 1
			p, err := m.Alloc(mm.Request{Size: n})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		} else {
			j := rng.Intn(len(live))
			if err := m.Free(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		}
		if i%500 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	for _, p := range live {
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := m.Stats().LiveBytes; got != 0 {
		t.Errorf("LiveBytes = %d, want 0", got)
	}
}

func TestFootprintTracksLiveNotPeakFreelists(t *testing.T) {
	// Lea reuses coalesced memory: footprint after a churn phase must be
	// far below the sum of all allocations.
	m := newMgr()
	var total int64
	for i := 0; i < 1000; i++ {
		p, err := m.Alloc(mm.Request{Size: 1200})
		if err != nil {
			t.Fatal(err)
		}
		total += 1200
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if m.MaxFootprint() > total/10 {
		t.Errorf("MaxFootprint %d too large for churn of %d total bytes", m.MaxFootprint(), total)
	}
}
