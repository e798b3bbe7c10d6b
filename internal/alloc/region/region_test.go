package region

import (
	"testing"

	"dmmkit/internal/alloctest"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

func factory() mm.Manager { return New(heap.New(heap.Config{}), nil) }

func TestConformance(t *testing.T) {
	alloctest.Run(t, factory, alloctest.Options{})
}

func TestRegionFixedBlockSize(t *testing.T) {
	m := New(heap.New(heap.Config{}), nil)
	if _, err := m.Alloc(mm.Request{Size: 100, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	if got := m.RegionBlockSize(1); got != 128 {
		t.Errorf("RegionBlockSize = %d, want 128 (pow2 of first request)", got)
	}
	// A smaller request in the same region still consumes a full block:
	// the internal fragmentation the paper attributes to region managers.
	if _, err := m.Alloc(mm.Request{Size: 10, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	wantGross := int64(2 * (128 + 8)) // two blocks of 128 payload + 8 header
	if s.GrossLive != wantGross {
		t.Errorf("GrossLive = %d, want %d", s.GrossLive, wantGross)
	}
}

func TestSizerConfiguresWorstCase(t *testing.T) {
	sizer := func(tag int, _ int64) int64 {
		if tag == 7 {
			return 640 * 480 // image region sized for the worst case
		}
		return 64
	}
	m := New(heap.New(heap.Config{}), sizer)
	if _, err := m.Alloc(mm.Request{Size: 1000, Tag: 7}); err != nil {
		t.Fatal(err)
	}
	if got := m.RegionBlockSize(7); got != 640*480 {
		t.Errorf("RegionBlockSize = %d, want 307200", got)
	}
}

func TestRegionsDoNotShareFreeLists(t *testing.T) {
	m := New(heap.New(heap.Config{}), nil)
	var ps []heap.Addr
	for i := 0; i < 32; i++ {
		p, err := m.Alloc(mm.Request{Size: 256, Tag: 1})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		_ = m.Free(p)
	}
	before := m.Footprint()
	// Same block size, different region: must not reuse region 1's list.
	if _, err := m.Alloc(mm.Request{Size: 256, Tag: 2}); err != nil {
		t.Fatal(err)
	}
	if m.Footprint() <= before {
		t.Error("regions shared free memory across tags")
	}
}

func TestReuseWithinRegion(t *testing.T) {
	m := New(heap.New(heap.Config{}), nil)
	p, err := m.Alloc(mm.Request{Size: 256, Tag: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	q, err := m.Alloc(mm.Request{Size: 200, Tag: 3})
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("same-region reallocation got %#x, want reused %#x", q, p)
	}
}

func TestOversizeRequestStillServed(t *testing.T) {
	m := New(heap.New(heap.Config{}), func(int, int64) int64 { return 64 })
	p, err := m.Alloc(mm.Request{Size: 5000, Tag: 1})
	if err != nil {
		t.Fatalf("oversize request failed: %v", err)
	}
	m.Heap().Fill(p, 5000, 0xAB)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestNeverReturnsMemory(t *testing.T) {
	m := New(heap.New(heap.Config{}), nil)
	var ps []heap.Addr
	for i := 0; i < 100; i++ {
		p, err := m.Alloc(mm.Request{Size: 512, Tag: i % 3})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	peak := m.Footprint()
	for _, p := range ps {
		_ = m.Free(p)
	}
	if m.Footprint() != peak {
		t.Errorf("footprint shrank from %d to %d; regions never release", peak, m.Footprint())
	}
}
