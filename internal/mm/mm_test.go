package mm

import (
	"testing"

	"dmmkit/internal/heap"
)

func TestAccountingAllocFree(t *testing.T) {
	var a Accounting
	a.NoteAlloc(100, 128)
	a.NoteAlloc(50, 64)
	s := a.Stats()
	if s.Allocs != 2 || s.LiveBytes != 150 || s.LiveBlocks != 2 || s.GrossLive != 192 {
		t.Errorf("after allocs: %+v", s)
	}
	if s.MaxLive != 150 {
		t.Errorf("MaxLive = %d, want 150", s.MaxLive)
	}
	a.NoteFree(100, 128)
	s = a.Stats()
	if s.Frees != 1 || s.LiveBytes != 50 || s.GrossLive != 64 {
		t.Errorf("after free: %+v", s)
	}
	if s.MaxLive != 150 {
		t.Errorf("MaxLive dropped to %d", s.MaxLive)
	}
}

func TestAccountingWork(t *testing.T) {
	var a Accounting
	a.Charge(CostProbe)
	a.ChargeN(CostLink, 3)
	a.NoteSplit()
	a.NoteCoalesce()
	s := a.Stats()
	want := CostProbe + 3*CostLink + CostSplit + CostCoalesce
	if s.Work != want {
		t.Errorf("Work = %d, want %d", s.Work, want)
	}
	if s.Splits != 1 || s.Coalesces != 1 {
		t.Errorf("Splits/Coalesces = %d/%d", s.Splits, s.Coalesces)
	}
}

func TestInternalFrag(t *testing.T) {
	var a Accounting
	if f := a.Stats().InternalFrag(); f != 0 {
		t.Errorf("empty InternalFrag = %f", f)
	}
	a.NoteAlloc(75, 100)
	if f := a.Stats().InternalFrag(); f != 0.25 {
		t.Errorf("InternalFrag = %f, want 0.25", f)
	}
}

func TestShadow(t *testing.T) {
	var s Shadow
	if s.Len() != 0 || s.Contains(8) {
		t.Error("fresh shadow not empty")
	}
	s.Add(8, 100)
	s.Add(16, 200)
	if !s.Contains(8) || s.Len() != 2 {
		t.Error("Add not visible")
	}
	req, ok := s.Remove(8)
	if !ok || req != 100 {
		t.Errorf("Remove = %d,%v", req, ok)
	}
	if _, ok := s.Remove(8); ok {
		t.Error("double Remove succeeded")
	}
}

func TestErrOutOfMemoryMirrorsHeap(t *testing.T) {
	if ErrOutOfMemory != heap.ErrOutOfMemory {
		t.Error("mm.ErrOutOfMemory is not heap.ErrOutOfMemory")
	}
}
