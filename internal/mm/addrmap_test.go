package mm

import (
	"math/rand"
	"testing"

	"dmmkit/internal/heap"
)

// smallHeap returns a heap whose break region ends at 64 KiB, so random
// addresses land both inside and outside an AddrMap's range.
func smallHeap() *heap.Heap { return heap.New(heap.Config{SegBase: 1 << 16}) }

// livePages counts the pages an AddrMap holds in use: allocated minus
// spare.
func livePages(a *AddrMap) int { return len(a.pages) - len(a.spare) }

// refSpans counts the 512-byte spans holding entries, and those holding
// two or more. A span uses a page only once a second entry has joined its
// first, and gives it back when it empties, so the pages in use lie
// between the two counts.
func refSpans(ref map[heap.Addr]uint32) (occupied, shared int) {
	perSpan := map[heap.Addr]int{}
	for p := range ref {
		perSpan[p>>pageShift]++
	}
	for _, n := range perSpan {
		if n > 1 {
			shared++
		}
	}
	return len(perSpan), shared
}

// TestAddrMapDifferential drives an AddrMap and a reference Go map
// through one seeded random program and checks, after every step, that
// they agree on every answer, on what Put refuses (unaligned, out of
// range, out-of-range values, and a granule held by the address 4 bytes
// away), and that the pages in use follow the occupied spans.
func TestAddrMapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := smallHeap()
	a := NewAddrMap(h)
	ref := map[heap.Addr]uint32{}
	limit := h.SegBase()

	randAddr := func() heap.Addr {
		switch rng.Intn(10) {
		case 0: // anywhere, usually unaligned
			return heap.Addr(rng.Intn(1 << 17))
		case 1: // beyond the break region
			return limit + heap.Addr(rng.Intn(1<<12))*4
		default: // 4-aligned, clustered so granules and pages collide
			return heap.Addr(rng.Intn(1<<12)+2) * 4
		}
	}
	randValue := func() uint32 {
		switch rng.Intn(20) {
		case 0:
			return 0
		case 1:
			return MaxAddrMapValue + uint32(rng.Intn(4))
		default:
			return uint32(rng.Intn(1<<20) + 1)
		}
	}
	refuses := func(p heap.Addr, v uint32) bool {
		if p&3 != 0 || p >= limit || v == 0 || v > MaxAddrMapValue {
			return true
		}
		_, partner := ref[p^4]
		return partner
	}

	for i := 0; i < 200000; i++ {
		p := randAddr()
		switch op := rng.Intn(10); {
		case op < 5:
			v := randValue()
			want := !refuses(p, v)
			if got := a.Put(p, v); got != want {
				t.Fatalf("op %d: Put(%#x, %d) = %v, want %v", i, p, v, got, want)
			}
			if want {
				ref[p] = v
			}
		case op < 8:
			want, wantOK := ref[p]
			delete(ref, p)
			if got, ok := a.Take(p); ok != wantOK || got != want {
				t.Fatalf("op %d: Take(%#x) = (%d, %v), want (%d, %v)", i, p, got, ok, want, wantOK)
			}
		default:
			want, wantOK := ref[p]
			if got, ok := a.Get(p); ok != wantOK || got != want {
				t.Fatalf("op %d: Get(%#x) = (%d, %v), want (%d, %v)", i, p, got, ok, want, wantOK)
			}
		}
		if a.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, a.Len(), len(ref))
		}
		if i%1000 != 0 {
			continue
		}
		if occupied, shared := refSpans(ref); livePages(&a) < shared || livePages(&a) > occupied {
			t.Fatalf("op %d: %d pages in use, want between %d and %d", i, livePages(&a), shared, occupied)
		}
	}
	for p, want := range ref {
		if got, ok := a.Take(p); !ok || got != want {
			t.Fatalf("drain Take(%#x) = (%d, %v), want (%d, true)", p, got, ok, want)
		}
	}
	if a.Len() != 0 || livePages(&a) != 0 {
		t.Fatalf("after drain: Len %d, %d pages in use", a.Len(), livePages(&a))
	}
}

// TestAddrMapGranulePartners covers p and p+4 sharing a granule: the
// second is refused while the first lives, and accepted once it is gone,
// both while the span keeps its one entry inline and once it has a page.
func TestAddrMapGranulePartners(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		a := NewAddrMap(smallHeap())
		testGranulePartners(t, &a)
	})
	t.Run("page", func(t *testing.T) {
		a := NewAddrMap(smallHeap())
		a.Put(80, 7) // a second granule in the span puts it on a page
		testGranulePartners(t, &a)
		if livePages(&a) != 1 {
			t.Fatalf("%d pages in use, want 1", livePages(&a))
		}
	})
}

func testGranulePartners(t *testing.T, a *AddrMap) {
	if !a.Put(64, 1) {
		t.Fatal("Put(64) refused")
	}
	if a.Put(68, 2) {
		t.Fatal("Put(68) accepted while 64 holds the granule")
	}
	if _, ok := a.Get(68); ok {
		t.Fatal("Get(68) found the partner's entry")
	}
	if !a.Put(64, 3) {
		t.Fatal("overwriting 64 refused")
	}
	if v, ok := a.Take(64); !ok || v != 3 {
		t.Fatalf("Take(64) = (%d, %v), want (3, true)", v, ok)
	}
	if !a.Put(68, 2) {
		t.Fatal("Put(68) refused after 64 left")
	}
	if v, ok := a.Get(68); !ok || v != 2 {
		t.Fatalf("Get(68) = (%d, %v), want (2, true)", v, ok)
	}
}

// TestAddrMapPageReuse empties a page and checks that it returns to the
// spare list and backs the next span that needs a page, instead of the
// arena growing.
func TestAddrMapPageReuse(t *testing.T) {
	a := NewAddrMap(smallHeap())
	for p := heap.Addr(512); p < 1024; p += 8 {
		if !a.Put(p, uint32(p)) {
			t.Fatalf("Put(%#x) refused", p)
		}
	}
	if len(a.pages) != 1 {
		t.Fatalf("one page of entries used %d pages", len(a.pages))
	}
	for p := heap.Addr(512); p < 1024; p += 8 {
		if _, ok := a.Take(p); !ok {
			t.Fatalf("Take(%#x) missed", p)
		}
	}
	if livePages(&a) != 0 || len(a.spare) != 1 {
		t.Fatalf("emptied page not spared: %d live, %d spare", livePages(&a), len(a.spare))
	}
	if !a.Put(40000, 9) {
		t.Fatal("Put(40000) refused")
	}
	if len(a.spare) != 1 {
		t.Fatal("a span's first entry took a page")
	}
	if !a.Put(40008, 10) {
		t.Fatal("Put(40008) refused")
	}
	if len(a.pages) != 1 || len(a.spare) != 0 {
		t.Fatalf("spare page not reused: %d pages, %d spare", len(a.pages), len(a.spare))
	}
	for p, want := range map[heap.Addr]uint32{40000: 9, 40008: 10} {
		if v, ok := a.Get(p); !ok || v != want {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", p, v, ok, want)
		}
	}
	for p := heap.Addr(512); p < 1024; p += 8 {
		if _, ok := a.Get(p); ok {
			t.Fatalf("reused page still answers for %#x", p)
		}
	}
}

// TestShadowPageMapDifferential drives a heap-backed Shadow and a
// reference Go map through one seeded random program that mixes every
// case the page map refuses — granule partners, mapped-segment addresses,
// sizes of 0 and of 2^31 or more — with re-adds of live addresses and
// bad frees, then drains the final state.
func TestShadowPageMapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := smallHeap()
	s := NewShadow(h)
	ref := map[heap.Addr]int64{}
	randAddr := func() heap.Addr {
		if rng.Intn(8) == 0 {
			return h.SegBase() + heap.Addr(rng.Intn(1<<10))*8 // mapped segment
		}
		return heap.Addr(rng.Intn(1<<11)+1) * 4
	}
	randReq := func() int64 {
		switch rng.Intn(16) {
		case 0:
			return 0
		case 1:
			return 1<<31 + rng.Int63n(1<<20)
		case 2:
			return MaxAddrMapValue - 1 + rng.Int63n(3)
		default:
			return rng.Int63n(1 << 16)
		}
	}
	for i := 0; i < 200000; i++ {
		p := randAddr()
		switch op := rng.Intn(10); {
		case op < 5:
			req := randReq()
			s.Add(p, req)
			ref[p] = req
		case op < 8:
			want, wantOK := ref[p]
			delete(ref, p)
			if got, ok := s.Remove(p); ok != wantOK || got != want {
				t.Fatalf("op %d: Remove(%#x) = (%d, %v), want (%d, %v)", i, p, got, ok, want, wantOK)
			}
		default:
			_, want := ref[p]
			if got := s.Contains(p); got != want {
				t.Fatalf("op %d: Contains(%#x) = %v, want %v", i, p, got, want)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, s.Len(), len(ref))
		}
	}

	for p, want := range ref {
		if got, ok := s.Remove(p); !ok || got != want {
			t.Fatalf("drain Remove(%#x) = (%d, %v), want (%d, true)", p, got, ok, want)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", s.Len())
	}
}

// TestShadowBreakRegionSkipsTable checks that payloads in the break
// region with sizes below 2^31 never reach the hash table, and that the
// refused cases do.
func TestShadowBreakRegionSkipsTable(t *testing.T) {
	h := heap.New(heap.Config{})
	s := NewShadow(h)
	for p := heap.Addr(8); p < 1<<20; p += 24 {
		s.Add(p, int64(p%1000))
	}
	if s.over.Len() != 0 {
		t.Fatalf("%d break-region entries hashed", s.over.Len())
	}
	s.Add(h.SegBase()+16, 1) // mapped segment
	s.Add(1<<20, 1<<31)      // size beyond the page map
	s.Add(1<<20+32, 0)       // size 0 fits as 0+1
	s.Add(1<<20+64, 5)       // granule partner of the next one
	s.Add(1<<20+68, 6)       //   is refused by the page map
	if s.over.Len() != 3 {
		t.Fatalf("table holds %d entries, want 3", s.over.Len())
	}
	for p, want := range map[heap.Addr]int64{h.SegBase() + 16: 1, 1 << 20: 1 << 31, 1<<20 + 32: 0, 1<<20 + 64: 5, 1<<20 + 68: 6} {
		if got, ok := s.Remove(p); !ok || got != want {
			t.Fatalf("Remove(%#x) = (%d, %v), want (%d, true)", p, got, ok, want)
		}
	}
	if s.over.Len() != 0 || s.low != 0 {
		t.Fatalf("table left with %d entries, %d below the limit", s.over.Len(), s.low)
	}
}
