package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refU32 assembles the little-endian word byte-by-byte through Bytes —
// the reference the optimized accessors must agree with everywhere.
func refU32(h *Heap, addr Addr) uint32 {
	b := h.Bytes(addr, 4)
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// TestAccessorDifferential drives U32/PutU32 against the byte-by-byte
// reference across the sbrk region, and the segment path (Bytes) across
// multiple mapped segments, interleaved so the hot segment cache keeps
// switching, then checks that unmapping invalidates the cache.
func TestAccessorDifferential(t *testing.T) {
	h := New(Config{})
	rng := rand.New(rand.NewSource(3))

	start, err := h.Sbrk(4096)
	if err != nil {
		t.Fatal(err)
	}
	type site struct {
		addr Addr
		seg  bool
	}
	var sites []site
	for a := start; a+4 <= h.Brk(); a += 4 {
		sites = append(sites, site{a, false})
	}
	var segs []Addr
	for i := 0; i < 5; i++ {
		s, err := h.Map(8192)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, s)
		sz := h.SegmentSize(s)
		for a := s; int64(a-s)+4 <= sz; a += 512 {
			sites = append(sites, site{a, true})
		}
	}
	written := make(map[Addr]uint32)
	for i := 0; i < 20000; i++ {
		s := sites[rng.Intn(len(sites))]
		if rng.Intn(2) == 0 {
			v := rng.Uint32()
			if s.seg {
				binary.LittleEndian.PutUint32(h.Bytes(s.addr, 4), v)
			} else {
				h.PutU32(s.addr, v)
			}
			written[s.addr] = v
		}
		got := refU32(h, s.addr)
		if !s.seg && h.U32(s.addr) != got {
			t.Fatalf("U32(%#x) = %#x, reference says %#x", s.addr, h.U32(s.addr), got)
		}
		if want, ok := written[s.addr]; ok && got != want {
			t.Fatalf("word at %#x = %#x, last write was %#x", s.addr, got, want)
		}
	}

	// Unmapping the cached segment must not leave a dangling cache hit.
	last := segs[2]
	h.Bytes(last, 4)[0] = 0xEF // prime the hot cache on segs[2]
	if err := h.Unmap(last); err != nil {
		t.Fatal(err)
	}
	if n := h.SegmentSize(last); n != 0 {
		t.Fatalf("SegmentSize of unmapped segment = %d", n)
	}
	if err := faultOf(func() { h.Bytes(last, 4) }); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("Bytes on unmapped segment: panic %v, want ErrBadAddress", err)
	}
	// The other segments must still be reachable afterwards.
	for _, s := range segs {
		if s == last {
			continue
		}
		if got, want := refU32(h, s), written[s]; got != want {
			t.Fatalf("post-unmap word at %#x = %#x, want %#x", s, got, want)
		}
	}
}

// faultOf runs f and returns the error it panics with, or nil.
func faultOf(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(error); !ok {
				err = fmt.Errorf("non-error panic %v", r)
			}
		}
	}()
	f()
	return nil
}

// TestWordAccessorsRejectOutsideSbrk pins the word accessors' contract:
// they serve the sbrk region only, and any other address — a mapped
// segment, below the heap base, a word straddling the break — panics
// with an error that is ErrBadAddress and names the address.
func TestWordAccessorsRejectOutsideSbrk(t *testing.T) {
	h := New(Config{})
	if _, err := h.Sbrk(64); err != nil {
		t.Fatal(err)
	}
	seg, err := h.Map(4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		addr Addr
	}{
		{"segment", seg},
		{"below base", Base() - 4},
		{"nil", Nil},
		{"straddling the break", h.Brk() - 2},
		{"at the break", h.Brk()},
	} {
		for _, acc := range []struct {
			name string
			f    func(Addr)
		}{
			{"U32", func(a Addr) { h.U32(a) }},
			{"PutU32", func(a Addr) { h.PutU32(a, 1) }},
			{"Ptr", func(a Addr) { h.Ptr(a) }},
			{"PutPtr", func(a Addr) { h.PutPtr(a, 1) }},
		} {
			err := faultOf(func() { acc.f(tc.addr) })
			if !errors.Is(err, ErrBadAddress) {
				t.Errorf("%s at %s (%#x): panic %v, want ErrBadAddress", acc.name, tc.name, tc.addr, err)
				continue
			}
			if want := fmt.Sprintf("%#x", tc.addr); !strings.Contains(err.Error(), want) {
				t.Errorf("%s at %s: %q does not name %s", acc.name, tc.name, err, want)
			}
		}
	}
	// The segment is untouched, and still reachable through Bytes.
	if got := refU32(h, seg); got != 0 {
		t.Errorf("segment word = %#x after rejected writes", got)
	}
}

// TestAccessorBrkBoundary pins the fast-path bound: the last word below
// the break is readable, a straddling word panics with ErrBadAddress.
func TestAccessorBrkBoundary(t *testing.T) {
	h := New(Config{})
	if _, err := h.Sbrk(64); err != nil {
		t.Fatal(err)
	}
	last := h.Brk() - 4
	h.PutU32(last, 0x01020304)
	if got := h.U32(last); got != 0x01020304 {
		t.Fatalf("U32 at last word = %#x", got)
	}
	if err := faultOf(func() { h.U32(h.Brk() - 2) }); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("straddling U32: panic %v, want ErrBadAddress", err)
	}
}

func BenchmarkU32Sbrk(b *testing.B) {
	h := New(Config{})
	if _, err := h.Sbrk(4096); err != nil {
		b.Fatal(err)
	}
	h.PutU32(64, 42)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += h.U32(64)
	}
	_ = sink
}
