package bitset

import (
	"math/rand"
	"testing"
)

// reference is a plain bool-slice model of the bitset.
type reference []bool

func (r reference) nextGE(i int) int {
	if i < 0 {
		i = 0
	}
	for ; i < len(r); i++ {
		if r[i] {
			return i
		}
	}
	return -1
}

func TestBasic(t *testing.T) {
	var s Set
	if s.NextGE(0) != -1 {
		t.Fatal("empty set has a set bit")
	}
	s.Set(3)
	s.Set(70)
	s.Set(200)
	if !s.Test(3) || !s.Test(70) || s.Test(4) || s.Test(1000) {
		t.Fatal("Test mismatch")
	}
	for _, tc := range []struct{ from, want int }{
		{0, 3}, {3, 3}, {4, 70}, {63, 70}, {64, 70}, {70, 70}, {71, 200}, {200, 200}, {201, -1},
	} {
		if got := s.NextGE(tc.from); got != tc.want {
			t.Errorf("NextGE(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
	s.Clear(70)
	if got := s.NextGE(4); got != 200 {
		t.Errorf("NextGE(4) after Clear = %d, want 200", got)
	}
}

func TestInsertZero(t *testing.T) {
	var s Set
	s.Set(0)
	s.Set(63)
	s.Set(64)
	s.InsertZero(1)
	for _, want := range []struct {
		i  int
		on bool
	}{{0, true}, {1, false}, {63, false}, {64, true}, {65, true}} {
		if s.Test(want.i) != want.on {
			t.Errorf("after InsertZero(1): bit %d = %v, want %v", want.i, s.Test(want.i), want.on)
		}
	}
}

// TestDifferential drives Set and a bool-slice model through random
// operations, comparing NextGE over the whole domain after each step.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Set
	ref := make(reference, 0, 512)
	grow := func(i int) {
		for len(ref) <= i {
			ref = append(ref, false)
		}
	}
	for step := 0; step < 4000; step++ {
		i := rng.Intn(300)
		switch rng.Intn(4) {
		case 0:
			grow(i)
			ref[i] = true
			s.Set(i)
		case 1:
			grow(i)
			ref[i] = false
			s.Clear(i)
		case 2:
			grow(i)
			ref = append(ref, false)
			copy(ref[i+1:], ref[i:len(ref)-1])
			ref[i] = false
			s.InsertZero(i)
		default:
			if got, want := s.Test(i), i < len(ref) && ref[i]; got != want {
				t.Fatalf("step %d: Test(%d) = %v, want %v", step, i, got, want)
			}
		}
		for q := 0; q < 310; q += 7 {
			if got, want := s.NextGE(q), ref.nextGE(q); got != want {
				t.Fatalf("step %d: NextGE(%d) = %d, want %d", step, q, got, want)
			}
		}
	}
}
