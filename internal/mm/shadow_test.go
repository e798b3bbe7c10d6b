package mm

import (
	"math/rand"
	"testing"

	"dmmkit/internal/heap"
)

// TestShadowDifferential drives the shadow table — both its zero value,
// which hashes every entry, and a heap-backed one, which indexes
// break-region entries through its page map — and a reference Go map
// through the same random operation sequence and checks they agree after
// every step.
func TestShadowDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Shadow
	}{
		{"table", Shadow{}},
		{"pagemap", NewShadow(heap.New(heap.Config{}))},
	} {
		t.Run(tc.name, func(t *testing.T) { testShadowDifferential(t, tc.s) })
	}
}

func testShadowDifferential(t *testing.T, s Shadow) {
	rng := rand.New(rand.NewSource(42))
	ref := make(map[heap.Addr]int64)
	var keys []heap.Addr

	randAddr := func() heap.Addr {
		// 8-aligned, non-zero, clustered like real block addresses.
		return heap.Addr((rng.Int63n(1<<20) + 1) * 8)
	}
	for i := 0; i < 200000; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // add
			p := randAddr()
			req := rng.Int63n(1 << 20)
			if _, exists := ref[p]; !exists {
				keys = append(keys, p)
			}
			s.Add(p, req)
			ref[p] = req
		case op < 9 && len(keys) > 0: // remove (mix of live and dead keys)
			var p heap.Addr
			if rng.Intn(4) == 0 {
				p = randAddr()
			} else {
				j := rng.Intn(len(keys))
				p = keys[j]
				keys = append(keys[:j], keys[j+1:]...)
			}
			wantReq, wantOK := ref[p]
			delete(ref, p)
			gotReq, gotOK := s.Remove(p)
			if gotOK != wantOK || gotReq != wantReq {
				t.Fatalf("op %d: Remove(%#x) = (%d, %v), want (%d, %v)", i, p, gotReq, gotOK, wantReq, wantOK)
			}
		default: // contains
			p := randAddr()
			_, want := ref[p]
			if got := s.Contains(p); got != want {
				t.Fatalf("op %d: Contains(%#x) = %v, want %v", i, p, got, want)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, s.Len(), len(ref))
		}
	}
	// Drain everything through Remove to exercise deletion chains.
	for p, want := range ref {
		got, ok := s.Remove(p)
		if !ok || got != want {
			t.Fatalf("drain Remove(%#x) = (%d, %v), want (%d, true)", p, got, ok, want)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", s.Len())
	}
}

func TestShadowResetAndReuse(t *testing.T) {
	var s Shadow
	for i := 1; i <= 100; i++ {
		s.Add(heap.Addr(i*8), int64(i))
	}
	s.Reset()
	if s.Len() != 0 || s.Contains(8) {
		t.Fatal("Reset did not clear the table")
	}
	s.Add(16, 7)
	if req, ok := s.Remove(16); !ok || req != 7 {
		t.Fatalf("Remove after Reset = (%d, %v), want (7, true)", req, ok)
	}
}

// TestShadowAddOverwrite checks that re-adding a live address updates its
// size without growing the table's logical count.
func TestShadowAddOverwrite(t *testing.T) {
	var s Shadow
	s.Add(64, 10)
	s.Add(64, 20)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if req, _ := s.Remove(64); req != 20 {
		t.Fatalf("req = %d, want 20", req)
	}
}

func BenchmarkShadowAddRemove(b *testing.B) {
	var s Shadow
	for i := 0; i < b.N; i++ {
		p := heap.Addr((i%1024 + 1) * 16)
		s.Add(p, 64)
		s.Remove(p)
	}
}
