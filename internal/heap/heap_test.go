package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
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
// that are and are not powers of two, and for releases that cross one
// or two chunk boundaries.
func TestShrinkBrkPoisonsReleasedBytes(t *testing.T) {
	for _, tc := range []struct{ total, release int64 }{
		{1024, 8}, {1024, 64}, {1024, 296}, {1024, 1000},
		{3 * chunkSize, chunkSize + 8},
		{3 * chunkSize, 2*chunkSize + 296},
	} {
		h := New(Config{})
		a, err := h.Sbrk(tc.total)
		if err != nil {
			t.Fatal(err)
		}
		for off := Addr(0); off < Addr(tc.total); off += 4 {
			h.PutU32(a+off, 0x01020304)
		}
		if err := h.ShrinkBrk(tc.release); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Sbrk(tc.release); err != nil {
			t.Fatal(err)
		}
		keep := Addr(tc.total - tc.release)
		for off := Addr(0); off < Addr(tc.total); off += 4 {
			want := uint32(0x01020304)
			if off >= keep {
				want = 0xDDDDDDDD
			}
			if got := h.U32(a + off); got != want {
				t.Fatalf("total %d, release %d: word at +%d = %#x, want %#x", tc.total, tc.release, off, got, want)
			}
		}
	}
}

// TestChunkBoundaryWords writes the last word of each chunk and the
// first word of the next, reads them back through U32 and byte by byte,
// and checks that every word straddling the boundary faults with
// ErrBadAddress naming its address and leaves both chunks untouched.
func TestChunkBoundaryWords(t *testing.T) {
	h := New(Config{})
	if _, err := h.Sbrk(3 * chunkSize); err != nil {
		t.Fatal(err)
	}
	for k := Addr(1); k <= 2; k++ {
		edge := k * chunkSize
		last, first := uint32(0xA0B0C0D0)+uint32(k), uint32(0x01020304)+uint32(k)
		h.PutU32(edge-4, last)
		h.PutU32(edge, first)
		h.PutBits(edge, 0xFF00, 0xEE00)
		first = first&^0xFF00 | 0xEE00
		if got := h.U32(edge - 4); got != last || refU32(h, edge-4) != last {
			t.Errorf("last word of chunk %d = %#x, want %#x", k-1, got, last)
		}
		if got := h.U32(edge); got != first || refU32(h, edge) != first {
			t.Errorf("first word of chunk %d = %#x, want %#x", k, got, first)
		}
		for _, a := range []Addr{edge - 3, edge - 2, edge - 1} {
			for _, acc := range []struct {
				name string
				f    func(Addr)
			}{
				{"U32", func(a Addr) { h.U32(a) }},
				{"PutU32", func(a Addr) { h.PutU32(a, 0xFFFFFFFF) }},
				{"PutBits", func(a Addr) { h.PutBits(a, 0xFFFFFFFF, 0xFFFFFFFF) }},
			} {
				err := faultOf(func() { acc.f(a) })
				if !errors.Is(err, ErrBadAddress) {
					t.Errorf("%s straddling chunk %d at %#x: panic %v, want ErrBadAddress", acc.name, k, a, err)
				} else if want := fmt.Sprintf("%#x", a); !strings.Contains(err.Error(), want) {
					t.Errorf("%s at %#x: %q does not name %s", acc.name, a, err, want)
				}
			}
		}
		if got := refU32(h, edge-4); got != last {
			t.Errorf("last word of chunk %d = %#x after rejected writes, want %#x", k-1, got, last)
		}
		if got := refU32(h, edge); got != first {
			t.Errorf("first word of chunk %d = %#x after rejected writes, want %#x", k, got, first)
		}
	}
	if err := faultOf(func() { h.Bytes(chunkSize-4, 8) }); err == nil {
		t.Error("Bytes across a chunk boundary returned a view")
	}
	if got := h.Copy(chunkSize-4, 8); binary.LittleEndian.Uint32(got) != 0xA0B0C0D1 {
		t.Errorf("Copy across the boundary = % x", got)
	}
}

// TestSbrkAllocatesChunksOnly pins the host cost of growing the break:
// small Sbrk steps up to n bytes allocate the chunks that cover n and
// the chunk table, nothing more, and never move a byte once written. A
// store that grew by doubling and copying would allocate about 2n and
// move every byte on each copy.
func TestSbrkAllocatesChunksOnly(t *testing.T) {
	const n = 40*chunkSize + 1000
	h := New(Config{})
	// first is the lowest owned address in chunk i; starts holds the
	// host address of each chunk's first byte as the break reaches it.
	first := func(i int) Addr { return max(Addr(i)*chunkSize, Base()) }
	starts := make([]*byte, 0, n/chunkSize+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for h.Brk() < n {
		if _, err := h.Sbrk(200); err != nil {
			t.Fatal(err)
		}
		for first(len(starts)) < h.Brk() {
			starts = append(starts, &h.Bytes(first(len(starts)), 1)[0])
		}
	}
	runtime.ReadMemStats(&after)
	// The slack covers the chunk table, a pointer per chunk regrown by
	// append, and the runtime's own small allocations meanwhile.
	const slack = 16 << 10
	limit := int64(n+chunkSize-1)/chunkSize*chunkSize + slack
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > limit {
		t.Errorf("growing the break to %d bytes allocated %d bytes, want at most %d", n, got, limit)
	}
	for i, p := range starts {
		if q := &h.Bytes(first(i), 1)[0]; p != q {
			t.Fatalf("chunk %d moved from %p to %p", i, p, q)
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
			for _, b := range h.Copy(r.addr, r.n) {
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

// refChecksum is Checksum written over hash/fnv, one byte at a time,
// each read through its own Bytes view.
func refChecksum(h *Heap) uint64 {
	sum := fnv.New64a()
	var scratch [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		sum.Write(scratch[:])
	}
	word(uint64(h.brk))
	for a := base; a < h.brk; a++ {
		sum.Write(h.Bytes(a, 1))
	}
	word(uint64(len(h.segs)))
	for _, s := range h.segs {
		word(uint64(s.base))
		word(uint64(s.size))
		sum.Write(s.mem)
	}
	return sum.Sum64()
}

// TestChecksumMatchesFNV holds Checksum, which folds all-zero words as
// one multiply, to FNV-1a from hash/fnv: over buffers with a zero run of
// every length from 0 to 24 at every start offset mod 8, and over heaps
// with such runs in the break region and in mapped segments. The break
// region grows over three chunks, with zero runs across the boundaries.
func TestChecksumMatchesFNV(t *testing.T) {
	if got, want := fnvBytes(fnvOffset, nil), fnv.New64a().Sum64(); got != want {
		t.Fatalf("empty input: %#x, want %#x", got, want)
	}
	for start := 0; start < 8; start++ {
		for run := 0; run <= 24; run++ {
			for tail := 0; tail < 8; tail++ {
				b := make([]byte, start+run+tail)
				for i := range b {
					if i < start || i >= start+run {
						b[i] = byte(i*7 + 1)
					}
				}
				ref := fnv.New64a()
				ref.Write(b)
				if got, want := fnvBytes(fnvOffset, b), ref.Sum64(); got != want {
					t.Fatalf("start %d, zero run %d, tail %d: %#x, want %#x", start, run, tail, got, want)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(5))
	h := New(Config{})
	for i := 0; i < 40; i++ {
		if got, want := h.Checksum(), refChecksum(h); got != want {
			t.Fatalf("step %d: Checksum %#x, want %#x", i, got, want)
		}
		// Grow either region and write a few nonzero bytes at random
		// offsets, so the zero runs between them take every length.
		var a Addr
		var n int64
		var err error
		if i%3 == 2 {
			n = rng.Int63n(3000) + 1
			a, err = h.Map(n)
		} else {
			n = rng.Int63n(20000) + 1
			a, err = h.Sbrk(n)
		}
		if err != nil {
			t.Fatal(err)
		}
		for k := rng.Intn(4); k > 0; k-- {
			h.Bytes(a+Addr(rng.Int63n(n)), 1)[0] = byte(rng.Intn(255) + 1)
		}
	}
	if len(h.segs) == 0 {
		t.Fatal("no mapped segment was checked")
	}
	if h.Brk() <= 2*chunkSize {
		t.Fatalf("break %#x spans fewer than three chunks", h.Brk())
	}
	for edge := Addr(chunkSize); edge < h.Brk(); edge += chunkSize {
		for _, b := range h.Copy(edge-8, 16) {
			if b != 0 {
				t.Fatalf("no zero run across the chunk boundary at %#x", edge)
			}
		}
	}
}
