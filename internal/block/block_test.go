package block

import (
	"slices"
	"testing"
	"testing/quick"

	"dmmkit/internal/heap"
)

func newHeap(t *testing.T, n int64) (*heap.Heap, heap.Addr) {
	t.Helper()
	h := heap.New(heap.Config{})
	a, err := h.Sbrk(n)
	if err != nil {
		t.Fatal(err)
	}
	return h, a
}

func TestLayoutOverheads(t *testing.T) {
	cases := []struct {
		l              Layout
		header, footer int64
		min            int64
	}{
		{Layout{TagsNone, 0, LinksSingle}, 0, 0, 8},
		{Layout{TagsHeader, InfoSize, LinksSingle}, 4, 0, 8},
		{Layout{TagsHeader, InfoSize | InfoStatus, LinksDouble}, 4, 0, 16},
		{Layout{TagsHeader, InfoSize | InfoStatus | InfoPrevSize, LinksDouble}, 8, 0, 16},
		{Layout{TagsBoth, InfoSize | InfoStatus, LinksDouble}, 4, 4, 16},
	}
	for _, c := range cases {
		if err := c.l.Validate(); err != nil {
			t.Errorf("%+v: Validate: %v", c.l, err)
			continue
		}
		if got := c.l.HeaderBytes(); got != c.header {
			t.Errorf("%+v: HeaderBytes = %d, want %d", c.l, got, c.header)
		}
		if got := c.l.FooterBytes(); got != c.footer {
			t.Errorf("%+v: FooterBytes = %d, want %d", c.l, got, c.footer)
		}
		if got := c.l.MinBlock(); got != c.min {
			t.Errorf("%+v: MinBlock = %d, want %d", c.l, got, c.min)
		}
	}
}

func TestLayoutValidateRejectsInconsistent(t *testing.T) {
	if err := (Layout{TagsNone, InfoSize, LinksNone}).Validate(); err == nil {
		t.Error("info without tags validated")
	}
	if err := (Layout{TagsHeader, 0, LinksNone}).Validate(); err == nil {
		t.Error("tags without size field validated")
	}
}

func TestGrossForCoversRequestPlusOverhead(t *testing.T) {
	l := Layout{TagsBoth, InfoSize | InfoStatus, LinksDouble}
	for _, n := range []int64{1, 7, 8, 9, 100, 1000} {
		g := l.GrossFor(n)
		if g < n+l.Overhead() {
			t.Errorf("GrossFor(%d) = %d, too small for payload+overhead", n, g)
		}
		if g%heap.Align != 0 {
			t.Errorf("GrossFor(%d) = %d, unaligned", n, g)
		}
		if g < l.MinBlock() {
			t.Errorf("GrossFor(%d) = %d below MinBlock %d", n, g, l.MinBlock())
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h, a := newHeap(t, 256)
	v := NewView(h, Layout{TagsHeader, InfoSize | InfoStatus, LinksDouble})
	v.SetHeader(a, 64, true, false)
	if got := v.Size(a); got != 64 {
		t.Errorf("Size = %d, want 64", got)
	}
	if !v.Used(a) || v.PrevUsed(a) {
		t.Errorf("flags = used:%v prevUsed:%v, want true,false", v.Used(a), v.PrevUsed(a))
	}
	v.SetUsed(a, false)
	v.SetPrevUsed(a, true)
	if v.Used(a) || !v.PrevUsed(a) {
		t.Error("flag rewrite failed")
	}
	if got := v.Size(a); got != 64 {
		t.Errorf("Size after flag writes = %d, want 64", got)
	}
}

func TestStatusBitsIgnoredWithoutInfoStatus(t *testing.T) {
	h, a := newHeap(t, 64)
	v := NewView(h, Layout{TagsHeader, InfoSize, LinksSingle})
	v.SetHeader(a, 32, true, true)
	if h.U32(a)&0x3 != 0 {
		t.Error("status bits written despite InfoStatus absent")
	}
}

func TestPrevSizeField(t *testing.T) {
	h, a := newHeap(t, 64)
	v := NewView(h, Layout{TagsHeader, InfoSize | InfoStatus | InfoPrevSize, LinksDouble})
	v.SetHeader(a, 48, false, false)
	v.SetPrevSize(a, 128)
	if got := v.PrevSizeField(a); got != 128 {
		t.Errorf("PrevSizeField = %d, want 128", got)
	}
}

func TestFooterAndPrevFooterSize(t *testing.T) {
	h, a := newHeap(t, 256)
	v := NewView(h, Layout{TagsBoth, InfoSize | InfoStatus, LinksDouble})
	v.SetHeader(a, 64, false, true)
	v.WriteFooterSized(a, 64)
	next := v.Next(a)
	v.SetHeader(next, 32, true, false)
	if got := v.PrevFooterSize(next); got != 64 {
		t.Errorf("PrevFooterSize = %d, want 64", got)
	}
}

func TestPayloadBlockInverse(t *testing.T) {
	h, a := newHeap(t, 64)
	for _, l := range []Layout{
		{TagsHeader, InfoSize, LinksSingle},
		{TagsHeader, InfoSize | InfoStatus | InfoPrevSize, LinksDouble},
		{TagsBoth, InfoSize | InfoStatus, LinksDouble},
	} {
		v := NewView(h, l)
		p := v.Payload(a)
		if v.Block(p) != a {
			t.Errorf("%+v: Block(Payload(a)) != a", l)
		}
	}
}

func TestFreeLinks(t *testing.T) {
	h, a := newHeap(t, 256)
	v := NewView(h, Layout{TagsBoth, InfoSize | InfoStatus, LinksDouble})
	v.SetHeader(a, 64, false, true)
	b := v.Next(a)
	v.SetHeader(b, 64, false, false)
	v.SetNextFree(a, b)
	v.SetPrevFree(b, a)
	if v.NextFree(a) != b || v.PrevFree(b) != a {
		t.Error("free link round trip failed")
	}
}

func TestWalkTilesRegion(t *testing.T) {
	h, a := newHeap(t, 96)
	v := NewView(h, Layout{TagsHeader, InfoSize | InfoStatus, LinksSingle})
	v.SetHeader(a, 32, true, true)
	v.SetHeader(a+32, 16, false, true)
	v.SetHeader(a+48, 48, true, false)
	var sizes []int64
	err := v.Walk(a, a+96, func(bi BlockInfo) error {
		sizes = append(sizes, bi.Size)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 32 || sizes[1] != 16 || sizes[2] != 48 {
		t.Errorf("Walk sizes = %v, want [32 16 48]", sizes)
	}
}

func TestWalkDetectsCorruptSize(t *testing.T) {
	h, a := newHeap(t, 64)
	v := NewView(h, Layout{TagsHeader, InfoSize, LinksSingle})
	h.PutU32(a, 0) // size 0: corrupt
	if err := v.Walk(a, a+64, func(BlockInfo) error { return nil }); err == nil {
		t.Error("Walk accepted zero-size block")
	}
	v.SetHeader(a, 128, false, false) // crosses end
	if err := v.Walk(a, a+64, func(BlockInfo) error { return nil }); err == nil {
		t.Error("Walk accepted block crossing region end")
	}
}

// freeAt returns a free-list predicate naming exactly the given blocks.
func freeAt(blocks ...heap.Addr) func(heap.Addr) bool {
	return func(b heap.Addr) bool { return slices.Contains(blocks, b) }
}

func TestCheckRegionPrevUsedConsistency(t *testing.T) {
	h, a := newHeap(t, 64)
	v := NewView(h, Layout{TagsHeader, InfoSize | InfoStatus, LinksSingle})
	v.SetHeader(a, 32, true, true)
	v.SetHeader(a+32, 32, false, true) // consistent: prev is used
	if _, err := v.CheckRegion(a, a+64, freeAt(a+32)); err != nil {
		t.Errorf("consistent region rejected: %v", err)
	}
	if _, err := v.CheckRegion(a, a+64, freeAt()); err == nil {
		t.Error("free block the free lists call used accepted")
	}
	v.SetPrevUsed(a+32, false) // now inconsistent
	if _, err := v.CheckRegion(a, a+64, freeAt(a+32)); err == nil {
		t.Error("inconsistent prevUsed accepted")
	}
}

func TestCheckRegionFooterConsistency(t *testing.T) {
	h, a := newHeap(t, 64)
	v := NewView(h, Layout{TagsBoth, InfoSize | InfoStatus, LinksDouble})
	v.SetHeader(a, 64, false, true)
	v.WriteFooterSized(a, 64)
	if _, err := v.CheckRegion(a, a+64, freeAt(a)); err != nil {
		t.Errorf("consistent footer rejected: %v", err)
	}
	h.PutU32(a+60, 32) // corrupt footer
	if _, err := v.CheckRegion(a, a+64, freeAt(a)); err == nil {
		t.Error("corrupt footer accepted")
	}
}

// TestCheckRegionFootersWithoutStatus pins the check for layouts that
// record no status bit: free-ness comes from the free lists, so a used
// block's unwritten footer passes and a free block's bad footer fails.
func TestCheckRegionFootersWithoutStatus(t *testing.T) {
	h, a := newHeap(t, 64)
	v := NewView(h, Layout{TagsBoth, InfoSize, LinksDouble})
	v.SetHeader(a, 32, true, true) // used, footer never written
	v.SetHeader(a+32, 32, false, true)
	v.WriteFooterSized(a+32, 32)
	if _, err := v.CheckRegion(a, a+64, freeAt(a+32)); err != nil {
		t.Errorf("used block without footer rejected: %v", err)
	}
	if _, err := v.CheckRegion(a, a+64, freeAt(a, a+32)); err == nil {
		t.Error("free block without footer accepted")
	}
}

// Property: header size/flag encoding round-trips for all aligned sizes and
// flag combinations.
func TestQuickHeaderEncoding(t *testing.T) {
	h, a := newHeap(t, 64)
	v := NewView(h, Layout{TagsHeader, InfoSize | InfoStatus, LinksSingle})
	f := func(raw uint32, used, prevUsed bool) bool {
		size := int64(raw%(1<<27)) &^ (heap.Align - 1)
		if size == 0 {
			size = heap.Align
		}
		v.SetHeader(a, size, used, prevUsed)
		return v.Size(a) == size && v.Used(a) == used && v.PrevUsed(a) == prevUsed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
