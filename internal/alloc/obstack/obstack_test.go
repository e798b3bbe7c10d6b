package obstack

import (
	"errors"
	"math/rand"
	"testing"

	"dmmkit/internal/alloctest"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

func factory() mm.Manager { return New(heap.New(heap.Config{}), 0) }

func TestConformance(t *testing.T) {
	alloctest.Run(t, factory, alloctest.Options{})
}

func TestLIFOFreesReclaimImmediately(t *testing.T) {
	m := New(heap.New(heap.Config{}), 0)
	var ps []heap.Addr
	for i := 0; i < 100; i++ {
		p, err := m.Alloc(mm.Request{Size: 100})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for i := len(ps) - 1; i >= 0; i-- {
		if err := m.Free(ps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if m.Footprint() != 0 {
		t.Errorf("Footprint after LIFO teardown = %d, want 0 (chunks returned)", m.Footprint())
	}
	if m.DeadBytes() != 0 || m.Depth() != 0 {
		t.Errorf("DeadBytes=%d Depth=%d after teardown, want zeros", m.DeadBytes(), m.Depth())
	}
}

func TestOutOfOrderFreeIsDeferred(t *testing.T) {
	// The paper's render3d observation: obstacks cannot exploit their
	// stack optimization when frees arrive out of order, paying a
	// footprint penalty.
	m := New(heap.New(heap.Config{}), 0)
	p1, _ := m.Alloc(mm.Request{Size: 1000})
	p2, _ := m.Alloc(mm.Request{Size: 1000})
	p3, _ := m.Alloc(mm.Request{Size: 1000})
	before := m.Footprint()
	if err := m.Free(p1); err != nil { // bottom of the stack: deferred
		t.Fatal(err)
	}
	if m.Footprint() != before {
		t.Error("freeing the bottom object reclaimed memory immediately")
	}
	if m.DeadBytes() == 0 {
		t.Error("DeadBytes = 0 after deferred free")
	}
	if err := m.Free(p3); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(p2); err != nil {
		t.Fatal(err)
	}
	// Now the dead bottom object unblocks: everything reclaimed.
	if m.Footprint() != 0 {
		t.Errorf("Footprint after all frees = %d, want 0", m.Footprint())
	}
	if m.DeadBytes() != 0 {
		t.Errorf("DeadBytes = %d, want 0", m.DeadBytes())
	}
}

func TestBigObjectGetsOwnChunk(t *testing.T) {
	m := New(heap.New(heap.Config{}), 0)
	p, err := m.Alloc(mm.Request{Size: 100000})
	if err != nil {
		t.Fatal(err)
	}
	m.Heap().Fill(p, 100000, 0x5A)
	if m.Footprint() < 100000 {
		t.Errorf("Footprint = %d, want >= 100000", m.Footprint())
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if m.Footprint() != 0 {
		t.Errorf("Footprint after freeing big object = %d, want 0", m.Footprint())
	}
}

func TestChunkReuseAfterPop(t *testing.T) {
	m := New(heap.New(heap.Config{}), 0)
	keep, _ := m.Alloc(mm.Request{Size: 64})
	p1, _ := m.Alloc(mm.Request{Size: 64})
	if err := m.Free(p1); err != nil {
		t.Fatal(err)
	}
	p2, _ := m.Alloc(mm.Request{Size: 64})
	if p1 != p2 {
		t.Errorf("bump pointer did not roll back: %#x then %#x", p1, p2)
	}
	_ = m.Free(p2)
	_ = m.Free(keep)
	// Once truly empty the obstack returns its chunks entirely.
	if m.Footprint() != 0 {
		t.Errorf("Footprint = %d after emptying obstack, want 0", m.Footprint())
	}
}

func TestInterleavedPhases(t *testing.T) {
	// Stack-like phase, then a non-LIFO phase, then teardown: the
	// render3d pattern in miniature.
	m := New(heap.New(heap.Config{}), 0)
	var phase1 []heap.Addr
	for i := 0; i < 50; i++ {
		p, err := m.Alloc(mm.Request{Size: 200})
		if err != nil {
			t.Fatal(err)
		}
		phase1 = append(phase1, p)
	}
	for i := 49; i >= 25; i-- { // LIFO pops succeed
		if err := m.Free(phase1[i]); err != nil {
			t.Fatal(err)
		}
	}
	footprintAfterPops := m.Footprint()
	// Non-LIFO frees of the remaining: every other object.
	for i := 0; i < 25; i += 2 {
		if err := m.Free(phase1[i]); err != nil {
			t.Fatal(err)
		}
	}
	if m.DeadBytes() == 0 {
		t.Error("expected deferred dead bytes in non-LIFO phase")
	}
	if m.Footprint() > footprintAfterPops {
		t.Error("footprint grew during frees")
	}
	for i := 1; i < 25; i += 2 {
		if err := m.Free(phase1[i]); err != nil {
			t.Fatal(err)
		}
	}
	if m.Footprint() != 0 || m.Depth() != 0 {
		t.Errorf("Footprint=%d Depth=%d after full teardown", m.Footprint(), m.Depth())
	}
}

func TestStatsLiveBytes(t *testing.T) {
	m := New(heap.New(heap.Config{}), 0)
	p, _ := m.Alloc(mm.Request{Size: 123})
	if got := m.Stats().LiveBytes; got != 123 {
		t.Errorf("LiveBytes = %d, want 123", got)
	}
	_ = m.Free(p)
	if got := m.Stats().LiveBytes; got != 0 {
		t.Errorf("LiveBytes = %d, want 0", got)
	}
}

// TestFreeFindsLiveObjectsOnly drives a random program of allocations,
// frees in any order, double frees and wild frees, and checks against a
// reference set of live payloads that Free succeeds exactly for live
// ones: the address-sorted stack lookup must find every live object and
// reject dead, interior and foreign addresses.
func TestFreeFindsLiveObjectsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(heap.New(heap.Config{}), 512)
	live := map[heap.Addr]bool{}
	var seen []heap.Addr
	for i := 0; i < 20000; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			p, err := m.Alloc(mm.Request{Size: rng.Int63n(700) + 1})
			if err != nil {
				t.Fatal(err)
			}
			if live[p] {
				t.Fatalf("op %d: Alloc returned live payload %#x", i, p)
			}
			live[p] = true
			seen = append(seen, p)
		case len(seen) > 0:
			p := seen[rng.Intn(len(seen))]
			switch rng.Intn(4) {
			case 0:
				p += heap.Addr(rng.Intn(3)+1) * 4 // interior address
			case 1:
				p = seen[len(seen)-1] // the newest, often the stack top
			}
			err := m.Free(p)
			if want := live[p]; (err == nil) != want {
				t.Fatalf("op %d: Free(%#x) = %v, live %v", i, p, err, want)
			}
			if err != nil && !errors.Is(err, mm.ErrBadFree) {
				t.Fatalf("op %d: Free(%#x) = %v, want ErrBadFree", i, p, err)
			}
			delete(live, p)
		}
		if got := m.Stats().LiveBlocks; got != int64(len(live)) {
			t.Fatalf("op %d: LiveBlocks = %d, want %d", i, got, len(live))
		}
	}
}
