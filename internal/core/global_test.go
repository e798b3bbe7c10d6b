package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/search"
	"dmmkit/internal/trace"
)

// newTwoPhaseGlobal composes a global manager over two DRR-vector custom
// managers, phases 0 and 1.
func newTwoPhaseGlobal(t *testing.T) (*Global, *Custom, *Custom) {
	t.Helper()
	m0, err := NewCustom(heap.New(heap.Config{}), drrVector(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewCustom(heap.New(heap.Config{}), drrVector(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGlobal("G", map[int]mm.Manager{0: m0, 1: m1})
	if err != nil {
		t.Fatal(err)
	}
	return g, m0, m1
}

func mustAlloc(t *testing.T, m mm.Manager, size int64, phase int) heap.Addr {
	t.Helper()
	p, err := m.Alloc(mm.Request{Size: size, Phase: phase})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGlobalBadHandles frees every kind of handle the slot table must
// reject and checks each is refused with mm.ErrBadFree, counted as a
// failure, and leaves the live handles untouched.
func TestGlobalBadHandles(t *testing.T) {
	g, _, _ := newTwoPhaseGlobal(t)
	a := mustAlloc(t, g, 100, 0)
	b := mustAlloc(t, g, 200, 1)
	freed := mustAlloc(t, g, 300, 0)
	if err := g.Free(freed); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		h    heap.Addr
	}{
		{"zero", heap.Nil},
		{"unaligned", a + 1},
		{"half-aligned", a + 4},
		{"past the last slot", (b/handleStride + 2) * handleStride},
		{"far out of range", ^heap.Addr(0) &^ (handleStride - 1)},
		{"freed", freed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := g.Stats().FailedOps
			if err := g.Free(tc.h); !errors.Is(err, mm.ErrBadFree) {
				t.Fatalf("Free(%#x) = %v, want ErrBadFree", tc.h, err)
			}
			if got := g.Stats().FailedOps; got != before+1 {
				t.Errorf("FailedOps = %d, want %d", got, before+1)
			}
		})
	}
	for _, h := range []heap.Addr{a, b} {
		if err := g.Free(h); err != nil {
			t.Fatalf("live handle %#x: %v", h, err)
		}
		if err := g.Free(h); !errors.Is(err, mm.ErrBadFree) {
			t.Fatalf("double free of %#x = %v, want ErrBadFree", h, err)
		}
	}
	if s := g.Stats(); s.LiveBlocks != 0 || s.Frees != 3 {
		t.Errorf("after freeing everything: %d live, %d frees; want 0, 3", s.LiveBlocks, s.Frees)
	}
}

// TestGlobalCountsAtomicFailureOnce: a failure the atomic manager
// reports (and counts) must show up once in the global Stats, not once
// more for the Global that merely passes the error on.
func TestGlobalCountsAtomicFailureOnce(t *testing.T) {
	m, err := NewCustom(heap.New(heap.Config{}), drrVector(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGlobal("G", map[int]mm.Manager{0: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Alloc(mm.Request{Size: 0}); err == nil {
		t.Fatal("Alloc of size 0 succeeded")
	}
	if got, atomic := g.Stats().FailedOps, m.Stats().FailedOps; atomic != 1 || got != atomic {
		t.Errorf("after a failed Alloc: Global FailedOps = %d, atomic = %d; want 1 and 1", got, atomic)
	}

	// Free the block behind the handle's back: the Global's Free then
	// routes a valid handle to a free the atomic manager refuses.
	h := mustAlloc(t, g, 64, 0)
	if err := m.Free(g.slots[h/handleStride-1].real); err != nil {
		t.Fatal(err)
	}
	if err := g.Free(h); !errors.Is(err, mm.ErrBadFree) {
		t.Fatalf("Free of a handle whose block is gone = %v, want ErrBadFree", err)
	}
	if got, atomic := g.Stats().FailedOps, m.Stats().FailedOps; atomic != 2 || got != atomic {
		t.Errorf("after a failed Free: Global FailedOps = %d, atomic = %d; want 2 and 2", got, atomic)
	}
}

// TestGlobalSlotReuse checks that freed slots are handed out again last
// in, first out, and that a reused handle routes to the manager of its
// new allocation.
func TestGlobalSlotReuse(t *testing.T) {
	g, m0, m1 := newTwoPhaseGlobal(t)
	a := mustAlloc(t, g, 64, 0)
	b := mustAlloc(t, g, 64, 0)
	c := mustAlloc(t, g, 64, 0)
	if a != handleStride || b != 2*handleStride || c != 3*handleStride {
		t.Fatalf("fresh handles %#x %#x %#x, want 8 16 24", a, b, c)
	}
	for _, h := range []heap.Addr{a, c} {
		if err := g.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	if d := mustAlloc(t, g, 64, 1); d != c {
		t.Fatalf("first reuse %#x, want the last freed %#x", d, c)
	}
	if e := mustAlloc(t, g, 64, 1); e != a {
		t.Fatalf("second reuse %#x, want %#x", e, a)
	}
	if f := mustAlloc(t, g, 64, 0); f != 4*handleStride {
		t.Fatalf("allocation past reuse %#x, want a fresh slot %#x", f, 4*handleStride)
	}
	// c now names a phase-1 block: freeing it must reach m1, not m0.
	frees0, frees1 := m0.Stats().Frees, m1.Stats().Frees
	if err := g.Free(c); err != nil {
		t.Fatal(err)
	}
	if m0.Stats().Frees != frees0 || m1.Stats().Frees != frees1+1 {
		t.Errorf("reused handle routed wrong: m0 frees %d->%d, m1 frees %d->%d",
			frees0, m0.Stats().Frees, frees1, m1.Stats().Frees)
	}
}

// TestGlobalCloneIndependent checks that a clone agrees with its original
// on StateChecksum, routes to its own atomic managers, and that neither
// observes the other's handle-table mutations.
func TestGlobalCloneIndependent(t *testing.T) {
	g, m0, _ := newTwoPhaseGlobal(t)
	a := mustAlloc(t, g, 100, 0)
	b := mustAlloc(t, g, 100, 1)
	freed := mustAlloc(t, g, 100, 0)
	if err := g.Free(freed); err != nil {
		t.Fatal(err)
	}
	cm, err := g.CloneManager()
	if err != nil {
		t.Fatal(err)
	}
	c := cm.(*Global)
	if c.StateChecksum() != g.StateChecksum() {
		t.Fatal("StateChecksum(clone) != StateChecksum(original)")
	}

	frees0 := m0.Stats().Frees
	if err := c.Free(a); err != nil {
		t.Fatal(err)
	}
	if m0.Stats().Frees != frees0 {
		t.Error("freeing through the clone reached the original's manager")
	}
	if c.StateChecksum() == g.StateChecksum() {
		t.Error("checksums agree after the clone freed a handle")
	}
	if err := g.Free(a); err != nil {
		t.Fatalf("original lost handle %#x the clone freed: %v", a, err)
	}
	if err := c.Free(a); !errors.Is(err, mm.ErrBadFree) {
		t.Errorf("clone double free = %v, want ErrBadFree", err)
	}
	// Both reuse their own free slot stacks: the same next handle.
	if ha, hc := mustAlloc(t, g, 8, 1), mustAlloc(t, c, 8, 1); ha != hc {
		t.Errorf("next handles diverged: original %#x, clone %#x", ha, hc)
	}
	for _, m := range []*Global{g, c} {
		if err := m.Free(b); err != nil {
			t.Fatalf("%p: Free(b): %v", m, err)
		}
	}
}

// TestCoalescingFindsEveryPoolRecord replays a trace against every
// coalescing vector of a design-space sample: on a consistent heap every
// free neighbour a merge absorbs has a recorded pool, so the invariant
// failure in unlinkKnownFree never fires.
func TestCoalescingFindsEveryPoolRecord(t *testing.T) {
	tr := drrLikeTrace()
	n := 0
	for _, v := range search.Sample(400, nil) {
		if v.CoalesceWhen == dspace.Never {
			continue
		}
		n++
		m, err := NewCustom(heap.New(heap.Config{}), v, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Run(context.Background(), m, tr, trace.RunOpts{}); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
	if n == 0 {
		t.Fatal("sample holds no coalescing vector")
	}
}

// TestUnlinkUnrecordedBlockPanics corrupts the pool table — a free block
// loses its record — and checks that the merge absorbing it fails loudly,
// naming the manager and the block, instead of guessing a pool.
func TestUnlinkUnrecordedBlockPanics(t *testing.T) {
	m, err := NewCustom(heap.New(heap.Config{}), drrVector(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetName("victim")
	a := mustAlloc(t, m, 100, 0)
	b := mustAlloc(t, m, 100, 0)
	mustAlloc(t, m, 100, 0) // keeps b away from the wilderness
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	blk := m.V.Block(a)
	if _, ok := m.freeKey.Take(blk); !ok {
		t.Fatal("freed block has no pool record")
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if r == nil || !strings.Contains(msg, "victim") || !strings.Contains(msg, fmt.Sprintf("%#x is free in-band but binned in no pool", blk)) {
			t.Fatalf("recovered %v, want an invariant failure naming the manager and block %#x", r, blk)
		}
	}()
	m.Free(b)
}

// TestNewCustomRejectsUnalignedClasses checks that class sizes must be
// positive multiples of heap.Align, the granularity of every block
// address and gross size.
func TestNewCustomRejectsUnalignedClasses(t *testing.T) {
	for _, classes := range [][]int64{{12, 64}, {0, 16}, {16, 100}} {
		if _, err := NewCustom(heap.New(heap.Config{}), kingsleyLikeVector(), Params{ClassSizes: classes}); err == nil {
			t.Errorf("ClassSizes %v accepted", classes)
		}
	}
	if _, err := NewCustom(heap.New(heap.Config{}), kingsleyLikeVector(), Params{ClassSizes: []int64{16, 24, 4096}}); err != nil {
		t.Errorf("aligned ClassSizes rejected: %v", err)
	}
}
