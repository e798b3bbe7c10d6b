package block

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dmmkit/internal/heap"
)

// Tags enumerates the A3 "Block tags" decision: which boundary tag fields a
// block carries.
type Tags uint8

const (
	// TagsNone reserves no metadata; block sizes must be implicit (fixed
	// per pool).
	TagsNone Tags = iota
	// TagsHeader reserves a header before the payload.
	TagsHeader
	// TagsBoth reserves a header and a footer (full boundary tags),
	// enabling constant-time backward coalescing.
	TagsBoth
)

// String returns the leaf name used in the paper's tree diagrams.
func (t Tags) String() string {
	switch t {
	case TagsNone:
		return "none"
	case TagsHeader:
		return "header"
	case TagsBoth:
		return "header+footer"
	}
	return fmt.Sprintf("Tags(%d)", uint8(t))
}

// Info is the A4 "Block recorded info" decision: a bit set of fields
// recorded inside the tags.
type Info uint8

const (
	// InfoSize records the block's gross size.
	InfoSize Info = 1 << iota
	// InfoStatus records used/free status bits (own and previous block).
	InfoStatus
	// InfoPrevSize records the previous neighbour's gross size in the
	// header, enabling backward coalescing without footers.
	InfoPrevSize
)

// Has reports whether all bits in q are recorded.
func (i Info) Has(q Info) bool { return i&q == q }

// String returns the leaf name used in the paper's tree diagrams.
func (i Info) String() string {
	if i == 0 {
		return "none"
	}
	s := ""
	if i.Has(InfoSize) {
		s += "+size"
	}
	if i.Has(InfoStatus) {
		s += "+status"
	}
	if i.Has(InfoPrevSize) {
		s += "+prevsize"
	}
	return s[1:]
}

// Links enumerates the free-list link fields kept in the payload of free
// blocks (the A1 "Block structure" DDT decides how many are needed).
type Links uint8

const (
	// LinksNone keeps no links (bitmap or implicit structures).
	LinksNone Links = iota
	// LinksSingle keeps one forward link (singly linked list).
	LinksSingle
	// LinksDouble keeps forward and backward links (doubly linked list).
	LinksDouble
)

// Bytes returns the payload bytes the links occupy while a block is free.
func (l Links) Bytes() int64 {
	switch l {
	case LinksSingle:
		return 4
	case LinksDouble:
		return 8
	}
	return 0
}

// Layout is a concrete block layout: the combination of A3 and A4 decisions
// plus the free-list link requirement.
type Layout struct {
	Tags  Tags
	Info  Info
	Links Links
}

// Validate reports whether the layout is self-consistent: tags imply some
// recorded info and vice versa.
func (l Layout) Validate() error {
	if l.Tags == TagsNone && l.Info != 0 {
		return fmt.Errorf("block: layout records %v with no tags to store them", l.Info)
	}
	if l.Tags != TagsNone && !l.Info.Has(InfoSize) {
		return fmt.Errorf("block: %v tags require at least the size field", l.Tags)
	}
	return nil
}

// HeaderBytes returns the bytes reserved before the payload.
func (l Layout) HeaderBytes() int64 {
	switch {
	case l.Tags == TagsNone:
		return 0
	case l.Info&InfoPrevSize != 0:
		return 8 // size|status word, prev size
	}
	return 4 // size|status word
}

// FooterBytes returns the bytes reserved after the payload.
func (l Layout) FooterBytes() int64 {
	if l.Tags == TagsBoth {
		return 4
	}
	return 0
}

// Overhead returns the per-block metadata bytes (header + footer).
func (l Layout) Overhead() int64 { return l.HeaderBytes() + l.FooterBytes() }

// MinBlock returns the smallest legal gross block size: metadata plus room
// for the free-list links, rounded up to the heap alignment.
func (l Layout) MinBlock() int64 {
	n := l.Overhead() + l.Links.Bytes()
	if n < heap.Align {
		n = heap.Align
	}
	return (n + heap.Align - 1) &^ (heap.Align - 1)
}

// GrossFor returns the gross block size needed to satisfy a payload request
// of n bytes under this layout.
func (l Layout) GrossFor(n int64) int64 {
	g := n + l.Overhead()
	if g < l.MinBlock() {
		g = l.MinBlock()
	}
	return (g + heap.Align - 1) &^ (heap.Align - 1)
}

const (
	usedBit     = 0x1
	prevUsedBit = 0x2
	sizeMask    = ^uint32(0x7)
)

// View binds a Layout to a heap, providing typed block accessors. The
// zero-size methods make the cost of each metadata access explicit at call
// sites; managers charge mm cost units alongside.
type View struct {
	H *heap.Heap
	L Layout
}

// NewView returns a View for layout l over h, panicking on invalid layouts
// (a programmer error: the design-space constraints forbid them).
func NewView(h *heap.Heap, l Layout) View {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return View{H: h, L: l}
}

// Panic values of the layout guards: a guard that fires is a programmer
// error, since the design-space constraints pick the accessors a layout
// supports. Package-level values keep the guards from adding an escape
// to the callers the accessors inline into.
var (
	errNoTags     = errors.New("block: header write on layout without tags")
	errNoPrevSize = errors.New("block: prev-size field on layout without InfoPrevSize")
	errNoFooter   = errors.New("block: footer access on layout without footer tags")
)

// header encodes the size/status header word of a block. It tests the
// status bit with a mask: through Info.Has, SetHeader would cost 83,
// over the inliner's budget of 80.
func (l Layout) header(size int64, used, prevUsed bool) uint32 {
	w := uint32(size) & sizeMask
	if l.Info&InfoStatus != 0 {
		if used {
			w |= usedBit
		}
		if prevUsed {
			w |= prevUsedBit
		}
	}
	return w
}

// SetHeader writes the size/status header of the block at b, which must
// lie in the heap's sbrk region.
func (v View) SetHeader(b heap.Addr, size int64, used, prevUsed bool) {
	if v.L.Tags == TagsNone {
		panic(errNoTags)
	}
	v.H.PutU32(b, v.L.header(size, used, prevUsed))
}

// SetSegmentHeader writes the header of a used block at the base of a
// mapped segment. Segments lie outside the sbrk region the other
// accessors serve, so the write goes through the heap's checked Bytes
// path; the block is the segment's only one, and its prevUsed bit is
// set so that nothing ever looks behind it.
func (v View) SetSegmentHeader(b heap.Addr, size int64) {
	if v.L.Tags == TagsNone {
		panic(errNoTags)
	}
	binary.LittleEndian.PutUint32(v.H.Bytes(b, 4), v.L.header(size, true, true))
}

// Size returns the gross size recorded in the header of the block at b.
func (v View) Size(b heap.Addr) int64 { return int64(v.H.U32(b) & sizeMask) }

// Used reports the used bit of the block at b.
func (v View) Used(b heap.Addr) bool { return v.H.U32(b)&usedBit != 0 }

// SetUsed rewrites only the used bit of the block at b.
func (v View) SetUsed(b heap.Addr, used bool) {
	var w uint32
	if used {
		w = usedBit
	}
	v.H.PutBits(b, usedBit, w)
}

// PrevUsed reports the previous-block-used bit of the block at b.
func (v View) PrevUsed(b heap.Addr) bool { return v.H.U32(b)&prevUsedBit != 0 }

// SetPrevUsed rewrites only the prevUsed bit of the block at b.
func (v View) SetPrevUsed(b heap.Addr, used bool) {
	var w uint32
	if used {
		w = prevUsedBit
	}
	v.H.PutBits(b, prevUsedBit, w)
}

// SetPrevSize records the previous neighbour's gross size (InfoPrevSize
// layouts only).
func (v View) SetPrevSize(b heap.Addr, size int64) {
	if !v.L.Info.Has(InfoPrevSize) {
		panic(errNoPrevSize)
	}
	v.H.PutU32(b+4, uint32(size))
}

// PrevSizeField returns the previous neighbour's gross size from the header
// (InfoPrevSize layouts only).
func (v View) PrevSizeField(b heap.Addr) int64 {
	if !v.L.Info.Has(InfoPrevSize) {
		panic(errNoPrevSize)
	}
	return int64(v.H.U32(b + 4))
}

// WriteFooterSized copies the gross size of the block at b, which the
// caller already holds, into its footer (TagsBoth layouts). Following
// dlmalloc, footers need only be valid on free blocks, but writing them
// unconditionally is also legal.
func (v View) WriteFooterSized(b heap.Addr, size int64) {
	if v.L.Tags != TagsBoth {
		panic(errNoFooter)
	}
	v.H.PutU32(b+heap.Addr(size)-4, uint32(size))
}

// PrevFooterSize reads the size stored in the previous neighbour's footer,
// which sits immediately before b (TagsBoth layouts, prev block free).
func (v View) PrevFooterSize(b heap.Addr) int64 {
	if v.L.Tags != TagsBoth {
		panic(errNoFooter)
	}
	return int64(v.H.U32(b-4) & sizeMask)
}

// Next returns the address of the next physical neighbour.
func (v View) Next(b heap.Addr) heap.Addr { return b + heap.Addr(v.Size(b)) }

// Payload returns the application-visible address of the block at b.
func (v View) Payload(b heap.Addr) heap.Addr { return b + heap.Addr(v.L.HeaderBytes()) }

// Block returns the block address for a payload address.
func (v View) Block(p heap.Addr) heap.Addr { return p - heap.Addr(v.L.HeaderBytes()) }

// Free-list links live at the start of the payload while a block is free.

// NextFree returns the forward free-list link of the free block at b.
func (v View) NextFree(b heap.Addr) heap.Addr { return v.H.Ptr(v.Payload(b)) }

// SetNextFree writes the forward free-list link of the free block at b.
func (v View) SetNextFree(b, to heap.Addr) { v.H.PutPtr(v.Payload(b), to) }

// PrevFree returns the backward free-list link of the free block at b,
// or Nil when the layout keeps no back links (anything but LinksDouble).
func (v View) PrevFree(b heap.Addr) heap.Addr {
	if v.L.Links != LinksDouble {
		return heap.Nil
	}
	return v.H.Ptr(v.Payload(b) + 4)
}

// SetPrevFree writes the backward free-list link of the free block at b;
// it does nothing when the layout keeps no back links.
func (v View) SetPrevFree(b, to heap.Addr) {
	if v.L.Links == LinksDouble {
		v.H.PutPtr(v.Payload(b)+4, to)
	}
}
