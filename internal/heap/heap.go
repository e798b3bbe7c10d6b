package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// Addr is an address (byte offset) inside a Heap's virtual address space.
// Address 0 is never a valid block address.
type Addr uint32

// Nil is the reserved invalid address.
const Nil Addr = 0

// Align is the alignment guaranteed by Sbrk and Map and required of all
// in-band field accesses that cross managers.
const Align = 8

// Common errors returned by Heap operations.
var (
	// ErrOutOfMemory is returned when the configured address-space or
	// byte limit would be exceeded.
	ErrOutOfMemory = errors.New("heap: out of memory")
	// ErrBadAddress is returned for accesses outside any live region.
	ErrBadAddress = errors.New("heap: bad address")
	// ErrBadUnmap is returned when unmapping an address that is not the
	// base of a live mapped segment.
	ErrBadUnmap = errors.New("heap: not a mapped segment")
)

// Config controls heap construction. The zero value selects defaults.
type Config struct {
	// PageSize is the sbrk granularity in bytes. Managers may request
	// arbitrary extensions; the heap grows its backing store in pages.
	// Default 4096.
	PageSize int64
	// SegBase is the virtual address where mapped segments start. The
	// break may never grow past it. Default 1 GiB.
	SegBase Addr
	// Limit, if non-zero, caps the total bytes (break + segments) the
	// heap will hand out; used for out-of-memory fault injection.
	Limit int64
}

type segment struct {
	base Addr
	size int64
	mem  []byte
}

// Heap is a simulated process heap. It is not safe for concurrent use;
// each manager owns its heap, mirroring a single-threaded embedded target.
type Heap struct {
	cfg Config

	mem   []byte // backing store for the sbrk region; mem[0] unused
	brk   Addr   // current program break; addresses in [base, brk) are owned
	span4 Addr   // count of addresses in [base, brk) with room for 4 bytes

	segs     []*segment // mmap-like segments, sorted by base
	hot      *segment   // last segment hit by locate, checked before the search
	nextSeg  Addr       // next segment base to hand out
	segBytes int64

	maxFootprint int64

	fault wordFault // panic value of the word accessors; see wordFault

	// Counters exposed through SysStats.
	nSbrk, nShrink, nMap, nUnmap int64
}

// base is the lowest address handed out by Sbrk. Address 0 is reserved,
// and keeping the first Align bytes unused means every valid address is
// non-zero and aligned.
const base Addr = Align

// New returns an empty heap with the given configuration.
func New(cfg Config) *Heap {
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.SegBase == 0 {
		cfg.SegBase = 1 << 30
	}
	h := &Heap{cfg: cfg, brk: base, nextSeg: cfg.SegBase}
	return h
}

// setSpan recomputes the fast-path bound after a break move: a 4-byte
// access at addr stays below the break iff uint32(addr-base) < span4.
func (h *Heap) setSpan() {
	if d := h.brk - base; d >= 4 {
		h.span4 = d - 3
	} else {
		h.span4 = 0
	}
}

// roundUp rounds n up to a multiple of Align.
func roundUp(n int64) int64 { return (n + Align - 1) &^ (Align - 1) }

// Sbrk extends the program break by n bytes (rounded up to Align) and
// returns the address of the newly acquired region. It fails if the break
// would collide with the segment area or exceed the byte limit.
func (h *Heap) Sbrk(n int64) (Addr, error) {
	if n <= 0 {
		return Nil, fmt.Errorf("heap: Sbrk size %d: must be positive", n)
	}
	n = roundUp(n)
	old := h.brk
	newBrk := int64(old) + n
	if newBrk > int64(h.cfg.SegBase) {
		return Nil, ErrOutOfMemory
	}
	if h.cfg.Limit > 0 && h.footprint()+n > h.cfg.Limit {
		return Nil, ErrOutOfMemory
	}
	// Grow backing store geometrically (in whole pages) so repeated
	// small extensions stay amortized O(1).
	if need := newBrk; need > int64(len(h.mem)) {
		if dbl := int64(len(h.mem)) * 2; need < dbl {
			need = dbl
		}
		pages := (need + h.cfg.PageSize - 1) / h.cfg.PageSize
		grown := make([]byte, pages*h.cfg.PageSize)
		copy(grown, h.mem)
		h.mem = grown
	}
	h.brk = Addr(newBrk)
	h.setSpan()
	h.nSbrk++
	h.bumpFootprint()
	return old, nil
}

// ShrinkBrk lowers the program break by n bytes, returning memory to the
// system. The caller must no longer own [brk-n, brk). The maximum
// footprint statistic is unaffected.
func (h *Heap) ShrinkBrk(n int64) error {
	if n <= 0 || n%Align != 0 {
		return fmt.Errorf("heap: ShrinkBrk size %d: must be positive and aligned", n)
	}
	if int64(h.brk)-n < int64(base) {
		return fmt.Errorf("heap: ShrinkBrk %d below heap base", n)
	}
	h.brk -= Addr(n)
	h.setSpan()
	// Poison the released range so use-after-release shows up in tests.
	// Sbrk regrows into these bytes and Checksum covers them. The fill
	// doubles a copy rather than storing byte by byte.
	if lo := int64(h.brk); lo < int64(len(h.mem)) {
		poison := h.mem[lo:min(lo+n, int64(len(h.mem)))]
		poison[0] = 0xDD
		for k := 1; k < len(poison); k *= 2 {
			copy(poison[k:], poison[:k])
		}
	}
	h.nShrink++
	return nil
}

// Brk returns the current program break.
func (h *Heap) Brk() Addr { return h.brk }

// SegBase returns the address where mapped segments start: the break
// region lies below it.
func (h *Heap) SegBase() Addr { return h.cfg.SegBase }

// Map allocates an mmap-like segment of n bytes (rounded up to the page
// size) outside the sbrk region and returns its base address.
func (h *Heap) Map(n int64) (Addr, error) {
	if n <= 0 {
		return Nil, fmt.Errorf("heap: Map size %d: must be positive", n)
	}
	sz := (n + h.cfg.PageSize - 1) / h.cfg.PageSize * h.cfg.PageSize
	if h.cfg.Limit > 0 && h.footprint()+sz > h.cfg.Limit {
		return Nil, ErrOutOfMemory
	}
	if int64(h.nextSeg)+sz > int64(^uint32(0))-Align {
		return Nil, ErrOutOfMemory
	}
	s := &segment{base: h.nextSeg, size: sz, mem: make([]byte, sz)}
	h.nextSeg += Addr(sz) + h.cfg.SegGuard()
	h.segs = append(h.segs, s)
	h.segBytes += sz
	h.nMap++
	h.bumpFootprint()
	return s.base, nil
}

// SegGuard is the gap left between mapped segments so that off-by-one
// accesses cannot silently land in a neighbouring segment.
func (c Config) SegGuard() Addr { return Addr(c.PageSize) }

// segIndex returns the index in segs of the segment whose base is addr,
// or -1. Segments are handed out at increasing bases and removals preserve
// order, so segs stays sorted and a binary search suffices.
func (h *Heap) segIndex(addr Addr) int {
	i := sort.Search(len(h.segs), func(i int) bool { return h.segs[i].base >= addr })
	if i < len(h.segs) && h.segs[i].base == addr {
		return i
	}
	return -1
}

// Unmap releases the segment previously returned by Map at addr.
func (h *Heap) Unmap(addr Addr) error {
	i := h.segIndex(addr)
	if i < 0 {
		return ErrBadUnmap
	}
	if h.hot == h.segs[i] {
		h.hot = nil
	}
	h.segBytes -= h.segs[i].size
	h.segs = append(h.segs[:i], h.segs[i+1:]...)
	h.nUnmap++
	return nil
}

// SegmentSize returns the size of the mapped segment at addr, or 0 if addr
// is not a mapped segment base.
func (h *Heap) SegmentSize(addr Addr) int64 {
	if i := h.segIndex(addr); i >= 0 {
		return h.segs[i].size
	}
	return 0
}

// InSbrkRegion reports whether addr lies inside the current sbrk region.
func (h *Heap) InSbrkRegion(addr Addr) bool {
	return addr >= base && addr < h.brk
}

// locate returns the backing slice and offset for addr, ensuring n bytes
// are accessible. The sbrk-region check is the fast path; segment lookups
// go through a last-hit cache before the binary search. Error construction
// lives out-of-line (badAddress) so locate's callers stay inline-friendly.
func (h *Heap) locate(addr Addr, n int64) ([]byte, int64, error) {
	if addr >= base && int64(addr)+n <= int64(h.brk) {
		return h.mem, int64(addr), nil
	}
	if s := h.seg(addr); s != nil {
		off := int64(addr) - int64(s.base)
		if off+n <= s.size {
			return s.mem, off, nil
		}
	}
	return nil, 0, badAddress(addr, n)
}

// seg returns the mapped segment containing addr, or nil. The last hit is
// cached: managers touch the same segment's header repeatedly (header
// write then payload access), so the cache removes the binary search from
// the common case.
func (h *Heap) seg(addr Addr) *segment {
	if s := h.hot; s != nil && addr >= s.base && int64(addr) < int64(s.base)+s.size {
		return s
	}
	if addr < h.cfg.SegBase {
		return nil
	}
	i := sort.Search(len(h.segs), func(i int) bool { return h.segs[i].base+Addr(h.segs[i].size) > addr })
	if i < len(h.segs) && addr >= h.segs[i].base {
		h.hot = h.segs[i]
		return h.segs[i]
	}
	return nil
}

//go:noinline
func badAddress(addr Addr, n int64) error {
	return fmt.Errorf("%w: %#x (+%d)", ErrBadAddress, addr, n)
}

// U32 reads a little-endian 32-bit field at addr, which must lie in the
// sbrk region: mapped segments are reached through Bytes. The single
// unsigned compare folds the lower and upper bound checks: addr < base
// underflows to a value above span4.
func (h *Heap) U32(addr Addr) uint32 {
	if addr-base >= h.span4 {
		h.fault.addr = addr
		panic(&h.fault)
	}
	return binary.LittleEndian.Uint32(h.mem[addr:])
}

// PutU32 writes a little-endian 32-bit field at addr in the sbrk region.
func (h *Heap) PutU32(addr Addr, v uint32) {
	if addr-base >= h.span4 {
		h.fault.addr = addr
		panic(&h.fault)
	}
	binary.LittleEndian.PutUint32(h.mem[addr:], v)
}

// Ptr reads an in-band address field at addr in the sbrk region.
func (h *Heap) Ptr(addr Addr) Addr { return Addr(h.U32(addr)) }

// PutPtr writes an in-band address field at addr in the sbrk region.
func (h *Heap) PutPtr(addr Addr, v Addr) { h.PutU32(addr, uint32(v)) }

// wordFault is the panic value of a word access outside the sbrk region.
// The heap keeps one and the word accessors panic with a pointer to it,
// so the failing branch builds no value and the accessors stay inline
// and escape-free. A later fault on the same heap overwrites the address
// it names.
type wordFault struct{ addr Addr }

func (f *wordFault) Error() string {
	return fmt.Sprintf("%v: %#x (+4) outside the sbrk region", ErrBadAddress, f.addr)
}

// Unwrap makes errors.Is(fault, ErrBadAddress) hold.
func (f *wordFault) Unwrap() error { return ErrBadAddress }

// Bytes returns a mutable view of n bytes at addr. The view is only valid
// until the next Sbrk/Map call.
func (h *Heap) Bytes(addr Addr, n int64) []byte {
	m, off, err := h.locate(addr, n)
	if err != nil {
		panic(err)
	}
	return m[off : off+n]
}

// Fill sets n bytes at addr to b; used by tests to detect overlap.
func (h *Heap) Fill(addr Addr, n int64, b byte) {
	s := h.Bytes(addr, n)
	for i := range s {
		s[i] = b
	}
}

// Checksum returns an FNV-1a hash over the heap's observable state: the
// sbrk region contents, the break, and every mapped segment (base, size,
// contents). Two heaps with equal checksums hold bit-identical memory;
// differential tests use this to prove optimizations preserve behavior.
func (h *Heap) Checksum() uint64 {
	sum := fnv.New64a()
	var scratch [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		sum.Write(scratch[:])
	}
	word(uint64(h.brk))
	if h.brk > base {
		sum.Write(h.mem[base:h.brk])
	}
	word(uint64(len(h.segs)))
	for _, s := range h.segs {
		word(uint64(s.base))
		word(uint64(s.size))
		sum.Write(s.mem)
	}
	return sum.Sum64()
}

// Clone returns a deep copy of the heap: identical observable state
// (Checksum, Footprint, SysStats, every byte an allocator can address)
// over fully independent backing memory, so a snapshot and the original
// can evolve in parallel replays without sharing anything mutable. The
// hot-segment cache is not carried over — it is a lookup accelerator
// with no observable effect.
func (h *Heap) Clone() *Heap {
	n := &Heap{
		cfg:          h.cfg,
		brk:          h.brk,
		span4:        h.span4,
		nextSeg:      h.nextSeg,
		segBytes:     h.segBytes,
		maxFootprint: h.maxFootprint,
		nSbrk:        h.nSbrk,
		nShrink:      h.nShrink,
		nMap:         h.nMap,
		nUnmap:       h.nUnmap,
	}
	if len(h.mem) > 0 {
		n.mem = make([]byte, len(h.mem))
		copy(n.mem, h.mem)
	}
	if len(h.segs) > 0 {
		n.segs = make([]*segment, len(h.segs))
		for i, s := range h.segs {
			n.segs[i] = &segment{base: s.base, size: s.size, mem: append([]byte(nil), s.mem...)}
		}
	}
	return n
}

// footprint is the memory currently requested from the system.
func (h *Heap) footprint() int64 {
	return int64(h.brk) - int64(base) + h.segBytes
}

// Footprint returns the bytes currently requested from the system (sbrk
// region plus mapped segments).
func (h *Heap) Footprint() int64 { return h.footprint() }

// MaxFootprint returns the high-water mark of Footprint over the heap's
// lifetime: the paper's "maximum memory footprint".
func (h *Heap) MaxFootprint() int64 { return h.maxFootprint }

func (h *Heap) bumpFootprint() {
	if f := h.footprint(); f > h.maxFootprint {
		h.maxFootprint = f
	}
}

// SysStats reports system-call-level activity for a heap.
type SysStats struct {
	Sbrks   int64 // break extensions
	Shrinks int64 // break shrinks (memory returned to the system)
	Maps    int64 // segment allocations
	Unmaps  int64 // segment releases
}

// SysStats returns the heap's system-call counters.
func (h *Heap) SysStats() SysStats {
	return SysStats{Sbrks: h.nSbrk, Shrinks: h.nShrink, Maps: h.nMap, Unmaps: h.nUnmap}
}

// Base returns the lowest valid sbrk-region address.
func Base() Addr { return base }
