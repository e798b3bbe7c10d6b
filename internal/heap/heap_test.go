package heap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSbrkGrowsAndReturnsOldBreak(t *testing.T) {
	h := New(Config{})
	a1, err := h.Sbrk(100)
	if err != nil {
		t.Fatalf("Sbrk: %v", err)
	}
	if a1 != Base() {
		t.Fatalf("first Sbrk returned %#x, want base %#x", a1, Base())
	}
	a2, err := h.Sbrk(8)
	if err != nil {
		t.Fatalf("Sbrk: %v", err)
	}
	want := Base() + Addr(roundUp(100))
	if a2 != want {
		t.Fatalf("second Sbrk returned %#x, want %#x", a2, want)
	}
}

func TestSbrkRejectsNonPositive(t *testing.T) {
	h := New(Config{})
	if _, err := h.Sbrk(0); err == nil {
		t.Error("Sbrk(0) succeeded, want error")
	}
	if _, err := h.Sbrk(-5); err == nil {
		t.Error("Sbrk(-5) succeeded, want error")
	}
}

func TestSbrkAlignment(t *testing.T) {
	h := New(Config{})
	for _, n := range []int64{1, 7, 8, 9, 100} {
		a, err := h.Sbrk(n)
		if err != nil {
			t.Fatalf("Sbrk(%d): %v", n, err)
		}
		if a%Align != 0 {
			t.Errorf("Sbrk(%d) returned unaligned address %#x", n, a)
		}
	}
}

func TestFootprintHighWater(t *testing.T) {
	h := New(Config{})
	if _, err := h.Sbrk(1000); err != nil {
		t.Fatal(err)
	}
	fp := h.Footprint()
	if fp != roundUp(1000) {
		t.Fatalf("Footprint = %d, want %d", fp, roundUp(1000))
	}
	if err := h.ShrinkBrk(roundUp(1000)); err != nil {
		t.Fatal(err)
	}
	if h.Footprint() != 0 {
		t.Errorf("Footprint after shrink = %d, want 0", h.Footprint())
	}
	if h.MaxFootprint() != fp {
		t.Errorf("MaxFootprint = %d, want %d (high water unaffected by shrink)", h.MaxFootprint(), fp)
	}
}

func TestShrinkBrkValidation(t *testing.T) {
	h := New(Config{})
	if _, err := h.Sbrk(64); err != nil {
		t.Fatal(err)
	}
	if err := h.ShrinkBrk(3); err == nil {
		t.Error("unaligned shrink succeeded")
	}
	if err := h.ShrinkBrk(128); err == nil {
		t.Error("shrink below base succeeded")
	}
	if err := h.ShrinkBrk(64); err != nil {
		t.Errorf("valid shrink failed: %v", err)
	}
}

// TestShrinkBrkPoisonsReleasedBytes checks that every released byte, and
// only those, reads 0xDD once Sbrk regrows into it, for release sizes
// that are and are not powers of two.
func TestShrinkBrkPoisonsReleasedBytes(t *testing.T) {
	for _, release := range []int64{8, 64, 296, 1000} {
		h := New(Config{})
		a, err := h.Sbrk(1024)
		if err != nil {
			t.Fatal(err)
		}
		for off := Addr(0); off < 1024; off += 4 {
			h.PutU32(a+off, 0x01020304)
		}
		if err := h.ShrinkBrk(release); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Sbrk(release); err != nil {
			t.Fatal(err)
		}
		keep := Addr(1024 - release)
		for off := Addr(0); off < 1024; off += 4 {
			want := uint32(0x01020304)
			if off >= keep {
				want = 0xDDDDDDDD
			}
			if got := h.U32(a + off); got != want {
				t.Fatalf("release %d: word at +%d = %#x, want %#x", release, off, got, want)
			}
		}
	}
}

func TestFieldRoundTrip(t *testing.T) {
	h := New(Config{})
	a, err := h.Sbrk(64)
	if err != nil {
		t.Fatal(err)
	}
	h.PutU32(a, 0xDEADBEEF)
	h.PutU32(a+4, 42)
	if got := h.U32(a); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x, want 0xDEADBEEF", got)
	}
	if got := h.U32(a + 4); got != 42 {
		t.Errorf("U32 = %d, want 42", got)
	}
	h.PutPtr(a+8, a)
	if got := h.Ptr(a + 8); got != a {
		t.Errorf("Ptr = %#x, want %#x", got, a)
	}
}

func TestAccessOutsideHeapPanics(t *testing.T) {
	h := New(Config{})
	defer func() {
		if recover() == nil {
			t.Error("U32 beyond break did not panic")
		}
	}()
	h.U32(Base() + 1000)
}

func TestMapUnmap(t *testing.T) {
	h := New(Config{})
	a, err := h.Map(10000)
	if err != nil {
		t.Fatal(err)
	}
	if a < h.cfg.SegBase {
		t.Fatalf("segment base %#x below SegBase %#x", a, h.cfg.SegBase)
	}
	if got := h.SegmentSize(a); got != 12288 {
		t.Errorf("SegmentSize = %d, want 12288 (page-rounded)", got)
	}
	h.Bytes(a, 4)[0] = 7
	if h.Bytes(a, 4)[0] != 7 {
		t.Error("segment field round trip failed")
	}
	if h.Footprint() != 12288 {
		t.Errorf("Footprint = %d, want 12288", h.Footprint())
	}
	if err := h.Unmap(a); err != nil {
		t.Fatal(err)
	}
	if h.Footprint() != 0 {
		t.Errorf("Footprint after unmap = %d, want 0", h.Footprint())
	}
	if err := h.Unmap(a); err == nil {
		t.Error("double unmap succeeded")
	}
}

func TestMapSegmentsDisjoint(t *testing.T) {
	h := New(Config{})
	var addrs []Addr
	for i := 0; i < 10; i++ {
		a, err := h.Map(5000)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for i, a := range addrs {
		h.Fill(a, 5000, byte(i+1))
	}
	for i, a := range addrs {
		for _, b := range h.Bytes(a, 5000) {
			if b != byte(i+1) {
				t.Fatalf("segment %d corrupted: got %d", i, b)
			}
		}
	}
}

func TestLimitForcesOutOfMemory(t *testing.T) {
	h := New(Config{Limit: 8192})
	if _, err := h.Sbrk(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Sbrk(8192); err != ErrOutOfMemory {
		t.Errorf("over-limit Sbrk: err = %v, want ErrOutOfMemory", err)
	}
	if _, err := h.Map(8192); err != ErrOutOfMemory {
		t.Errorf("over-limit Map: err = %v, want ErrOutOfMemory", err)
	}
	if _, err := h.Sbrk(4096); err != nil {
		t.Errorf("within-limit Sbrk failed: %v", err)
	}
}

func TestBrkCannotEnterSegmentArea(t *testing.T) {
	h := New(Config{SegBase: 1 << 16})
	if _, err := h.Sbrk(1 << 17); err != ErrOutOfMemory {
		t.Errorf("Sbrk past SegBase: err = %v, want ErrOutOfMemory", err)
	}
}

func TestSysStatsCounts(t *testing.T) {
	h := New(Config{})
	_, _ = h.Sbrk(16)
	_, _ = h.Sbrk(16)
	_ = h.ShrinkBrk(16)
	a, _ := h.Map(100)
	_ = h.Unmap(a)
	got := h.SysStats()
	want := SysStats{Sbrks: 2, Shrinks: 1, Maps: 1, Unmaps: 1}
	if got != want {
		t.Errorf("SysStats = %+v, want %+v", got, want)
	}
}

// Property: interleaved writes through Sbrk-acquired regions never clobber
// each other as long as the regions are disjoint.
func TestQuickDisjointWrites(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		h := New(Config{})
		type region struct {
			addr Addr
			n    int64
		}
		var regs []region
		for _, s := range sizes {
			n := int64(s%2000) + 1
			a, err := h.Sbrk(n)
			if err != nil {
				return false
			}
			regs = append(regs, region{a, n})
		}
		for i, r := range regs {
			h.Fill(r.addr, r.n, byte(i+1))
		}
		for i, r := range regs {
			for _, b := range h.Bytes(r.addr, r.n) {
				if b != byte(i+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: footprint is always the sum of break extent and live segments,
// and the max never decreases.
func TestQuickFootprintMonotoneMax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := New(Config{})
	var segs []Addr
	var maxSeen int64
	for i := 0; i < 500; i++ {
		switch rng.Intn(3) {
		case 0:
			_, _ = h.Sbrk(int64(rng.Intn(5000) + 1))
		case 1:
			if a, err := h.Map(int64(rng.Intn(20000) + 1)); err == nil {
				segs = append(segs, a)
			}
		case 2:
			if len(segs) > 0 {
				j := rng.Intn(len(segs))
				if err := h.Unmap(segs[j]); err != nil {
					t.Fatalf("unmap live segment: %v", err)
				}
				segs = append(segs[:j], segs[j+1:]...)
			}
		}
		if h.MaxFootprint() < maxSeen {
			t.Fatalf("MaxFootprint decreased: %d -> %d", maxSeen, h.MaxFootprint())
		}
		maxSeen = h.MaxFootprint()
		if h.Footprint() > h.MaxFootprint() {
			t.Fatalf("Footprint %d exceeds MaxFootprint %d", h.Footprint(), h.MaxFootprint())
		}
	}
}
