package kingsley

import (
	"testing"

	"dmmkit/internal/alloctest"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

func factory() mm.Manager { return New(heap.New(heap.Config{})) }

func TestConformance(t *testing.T) {
	alloctest.Run(t, factory, alloctest.Options{})
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		req  int64
		want int64 // gross block size
	}{
		{1, 16}, {12, 16}, {13, 32}, {28, 32}, {29, 64},
		{100, 128}, {1500, 2048}, {4092, 4096}, {4093, 8192},
	}
	for _, c := range cases {
		if got := int64(1) << classFor(c.req); got != c.want {
			t.Errorf("classFor(%d): gross %d, want %d", c.req, got, c.want)
		}
	}
}

func TestPow2Rounding(t *testing.T) {
	m := New(heap.New(heap.Config{}))
	if _, err := m.Alloc(mm.Request{Size: 1500}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.GrossLive != 2048 {
		t.Errorf("GrossLive for 1500-byte request = %d, want 2048 (power-of-two class)", s.GrossLive)
	}
	// Internal fragmentation: (2048-1500)/2048.
	if f := s.InternalFrag(); f < 0.25 || f > 0.30 {
		t.Errorf("InternalFrag = %.3f, want about 0.268", f)
	}
}

func TestNeverReturnsMemory(t *testing.T) {
	m := New(heap.New(heap.Config{}))
	var ps []heap.Addr
	for i := 0; i < 100; i++ {
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
	if m.Footprint() != peak {
		t.Errorf("Footprint after freeing everything = %d, want unchanged %d (Kingsley never releases)", m.Footprint(), peak)
	}
}

func TestFreeListReusePerClass(t *testing.T) {
	m := New(heap.New(heap.Config{}))
	p, err := m.Alloc(mm.Request{Size: 100}) // class 128
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	q, err := m.Alloc(mm.Request{Size: 90}) // same class
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("same-class reallocation got %#x, want reused %#x", q, p)
	}
}

func TestClassesDoNotShareMemory(t *testing.T) {
	// The paper: "only a limited amount of block sizes is used and thus
	// memory is misused" — freed blocks of one class are useless to
	// another.
	m := New(heap.New(heap.Config{}))
	var ps []heap.Addr
	for i := 0; i < 64; i++ {
		p, err := m.Alloc(mm.Request{Size: 1000})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		_ = m.Free(p)
	}
	before := m.Footprint()
	for i := 0; i < 64; i++ {
		if _, err := m.Alloc(mm.Request{Size: 200}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Footprint() <= before {
		t.Errorf("allocating a different class reused another class's free memory (footprint %d -> %d)", before, m.Footprint())
	}
}

func TestRefillSplitsChunk(t *testing.T) {
	m := New(heap.New(heap.Config{}))
	if _, err := m.Alloc(mm.Request{Size: 10}); err != nil { // class 16
		t.Fatal(err)
	}
	// A 4096-byte chunk yields 256 sixteen-byte blocks; one is in use.
	if got := m.FreeBlocks(4); got != 255 {
		t.Errorf("FreeBlocks(16B class) = %d, want 255", got)
	}
}

func TestWorkCostIsConstantish(t *testing.T) {
	m := New(heap.New(heap.Config{}))
	var ps []heap.Addr
	for i := 0; i < 1000; i++ {
		p, err := m.Alloc(mm.Request{Size: 100})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		_ = m.Free(p)
	}
	w := m.Stats().Work
	perOp := float64(w) / 2000
	if perOp > 20 {
		t.Errorf("work per op = %.1f units, want small constant (Kingsley is the fast baseline)", perOp)
	}
}

func TestOversizeRequestFails(t *testing.T) {
	m := New(heap.New(heap.Config{}))
	if _, err := m.Alloc(mm.Request{Size: 1 << 30}); err == nil {
		t.Error("absurd request succeeded")
	}
}
