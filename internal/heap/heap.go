package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
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
	// PageSize is the granularity of mapped segments: Map rounds sizes
	// up to it, and it is the guard gap left between segments (SegGuard).
	// The break region is unaffected: Sbrk aligns to Align, and its
	// backing store grows in fixed chunks. Default 4096.
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

	chunks []*[chunkSize]byte // backing store of the sbrk region; see chunkShift
	brk    Addr               // current program break; addresses in [base, brk) are owned
	span4  Addr               // count of addresses in [base, brk) with room for 4 bytes

	segs     []*segment // mmap-like segments, sorted by base
	hot      *segment   // last segment hit by locate, checked before the search
	nextSeg  Addr       // next segment base to hand out
	segBytes int64

	maxFootprint int64

	faultAddr Addr // address of the last word fault; see wordFault

	// Counters exposed through SysStats.
	nSbrk, nShrink, nMap, nUnmap int64
}

// The sbrk region is backed by fixed-size chunks: chunk i holds addresses
// [i<<chunkShift, (i+1)<<chunkShift). Sbrk appends chunks as the break
// grows and nothing ever copies or frees one, so the host memory behind a
// heap is its break high-water rounded up to a chunk, and a byte stays at
// one host address for the heap's lifetime. A chunk is a multiple of 4
// bytes, so an aligned word never straddles two chunks.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

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
	for int64(len(h.chunks))<<chunkShift < newBrk {
		h.chunks = append(h.chunks, new([chunkSize]byte))
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
	// The chunks behind it stay: Sbrk regrows into these bytes and
	// Checksum covers them.
	for s := range h.pieces(h.brk, n) {
		fillBytes(s, 0xDD)
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

// inBrk reports whether the n bytes at addr lie below the break.
func (h *Heap) inBrk(addr Addr, n int64) bool {
	return addr >= base && int64(addr)+n <= int64(h.brk)
}

// pieces yields the backing bytes of the n bytes at addr in the sbrk
// region, one slice per chunk, in address order. The caller has checked
// that the range is backed: below the break, or released by ShrinkBrk.
func (h *Heap) pieces(addr Addr, n int64) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		for n > 0 {
			s := h.chunks[addr>>chunkShift][addr&chunkMask:]
			if int64(len(s)) > n {
				s = s[:n]
			}
			if !yield(s) {
				return
			}
			addr += Addr(len(s))
			n -= int64(len(s))
		}
	}
}

// locate returns the n contiguous bytes at addr: a range below the break
// that lies inside one chunk, or a range inside one mapped segment.
// Segment lookups go through a last-hit cache before the binary search.
// Error construction lives out-of-line (badAddress) so locate's callers
// stay inline-friendly.
func (h *Heap) locate(addr Addr, n int64) ([]byte, error) {
	if h.inBrk(addr, n) {
		off := int64(addr & chunkMask)
		if off+n <= chunkSize {
			return h.chunks[addr>>chunkShift][off : off+n], nil
		}
		return nil, spansChunks(addr, n)
	}
	if s := h.seg(addr); s != nil {
		off := int64(addr) - int64(s.base)
		if off+n <= s.size {
			return s.mem[off : off+n], nil
		}
	}
	return nil, badAddress(addr, n)
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

//go:noinline
func spansChunks(addr Addr, n int64) error {
	return fmt.Errorf("heap: Bytes %#x (+%d) spans a chunk boundary of the sbrk region; use Fill or Copy", addr, n)
}

// U32 reads a little-endian 32-bit field at addr, which must lie in the
// sbrk region: mapped segments are reached through Bytes. The first
// unsigned compare folds the lower and upper bound checks: addr < base
// underflows to a value above span4. The second rejects a word that would
// straddle two chunks, which no aligned word does.
func (h *Heap) U32(addr Addr) uint32 {
	if addr-base >= h.span4 || addr&chunkMask > chunkSize-4 {
		h.faultAddr = addr
		panic((*wordFault)(h))
	}
	return binary.LittleEndian.Uint32(h.chunks[addr>>chunkShift][addr&chunkMask:])
}

// PutU32 writes a little-endian 32-bit field at addr in the sbrk region,
// under the same checks as U32.
func (h *Heap) PutU32(addr Addr, v uint32) {
	if addr-base >= h.span4 || addr&chunkMask > chunkSize-4 {
		h.faultAddr = addr
		panic((*wordFault)(h))
	}
	binary.LittleEndian.PutUint32(h.chunks[addr>>chunkShift][addr&chunkMask:], v)
}

// PutBits rewrites the bits of the 32-bit field at addr that mask selects
// to those of v and keeps the others, under the same checks as U32. It is
// a read-modify-write that finds the word once.
func (h *Heap) PutBits(addr Addr, mask, v uint32) {
	if addr-base >= h.span4 || addr&chunkMask > chunkSize-4 {
		h.faultAddr = addr
		panic((*wordFault)(h))
	}
	w := h.chunks[addr>>chunkShift][addr&chunkMask:]
	binary.LittleEndian.PutUint32(w, binary.LittleEndian.Uint32(w)&^mask|v&mask)
}

// Ptr reads an in-band address field at addr in the sbrk region.
func (h *Heap) Ptr(addr Addr) Addr { return Addr(h.U32(addr)) }

// PutPtr writes an in-band address field at addr in the sbrk region.
func (h *Heap) PutPtr(addr Addr, v Addr) { h.PutU32(addr, uint32(v)) }

// wordFault is the panic value of a word access outside the sbrk region
// or across a chunk boundary: the heap itself, seen as an error naming
// faultAddr. The failing branch stores the address and converts a
// pointer, so it builds no value and the accessors stay inline and
// escape-free. A later fault on the same heap overwrites the address it
// names.
type wordFault Heap

func (f *wordFault) Error() string {
	return fmt.Sprintf("%v: %#x (+4) outside the sbrk region or across a chunk", ErrBadAddress, f.faultAddr)
}

// Unwrap makes errors.Is(fault, ErrBadAddress) hold.
func (f *wordFault) Unwrap() error { return ErrBadAddress }

// Bytes returns a mutable view of the n bytes at addr, which must lie
// inside one mapped segment or inside one chunk of the sbrk region: a
// break-region range that spans chunks has no contiguous view, and Fill
// and Copy serve it. A break-region view stays valid while the bytes lie
// below the break; a segment view, until the segment is unmapped.
func (h *Heap) Bytes(addr Addr, n int64) []byte {
	s, err := h.locate(addr, n)
	if err != nil {
		panic(err)
	}
	return s
}

// Fill sets n bytes at addr to b; used by tests to detect overlap. A
// break-region range may span chunks.
func (h *Heap) Fill(addr Addr, n int64, b byte) {
	if !h.inBrk(addr, n) {
		fillBytes(h.Bytes(addr, n), b)
		return
	}
	for s := range h.pieces(addr, n) {
		fillBytes(s, b)
	}
}

// Copy returns a copy of the n bytes at addr, which may span chunks of
// the sbrk region; used by tests to check payloads.
func (h *Heap) Copy(addr Addr, n int64) []byte {
	if !h.inBrk(addr, n) {
		return append([]byte(nil), h.Bytes(addr, n)...)
	}
	out := make([]byte, 0, n)
	for s := range h.pieces(addr, n) {
		out = append(out, s...)
	}
	return out
}

// fillBytes sets every byte of s to b, doubling a copy rather than
// storing byte by byte.
func fillBytes(s []byte, b byte) {
	if len(s) == 0 {
		return
	}
	s[0] = b
	for k := 1; k < len(s); k *= 2 {
		copy(s[k:], s[:k])
	}
}

// Checksum returns an FNV-1a hash over the heap's observable state: the
// sbrk region contents, the break, and every mapped segment (base, size,
// contents). Two heaps with equal checksums hold bit-identical memory;
// differential tests use this to prove optimizations preserve behavior.
func (h *Heap) Checksum() uint64 {
	sum := uint64(fnvOffset)
	sum = fnvWord(sum, uint64(h.brk))
	for s := range h.pieces(base, int64(h.brk-base)) {
		sum = fnvBytes(sum, s)
	}
	sum = fnvWord(sum, uint64(len(h.segs)))
	for _, s := range h.segs {
		sum = fnvWord(sum, uint64(s.base))
		sum = fnvWord(sum, uint64(s.size))
		sum = fnvBytes(sum, s.mem)
	}
	return sum
}

// The 64-bit FNV-1a parameters, as in hash/fnv, and the prime to the
// eighth power modulo 2^64.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	fnvPrime8 = 0x1efac7090aef4a21
)

// fnvWord folds the eight little-endian bytes of v into the FNV-1a
// hash sum.
func fnvWord(sum, v uint64) uint64 {
	for range 8 {
		sum ^= v & 0xff
		sum *= fnvPrime
		v >>= 8
	}
	return sum
}

// fnvBytes folds b into the FNV-1a hash sum, bit-identically to
// hash/fnv. A zero byte only multiplies the hash by the prime, so an
// all-zero 8-byte word, which most of a simulated heap is, folds as one
// multiply by the prime's eighth power.
func fnvBytes(sum uint64, b []byte) uint64 {
	for len(b) >= 8 {
		if w := binary.LittleEndian.Uint64(b); w == 0 {
			sum *= fnvPrime8
		} else {
			sum = fnvWord(sum, w)
		}
		b = b[8:]
	}
	for _, c := range b {
		sum ^= uint64(c)
		sum *= fnvPrime
	}
	return sum
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
