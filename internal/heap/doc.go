// Package heap provides a simulated byte-addressable heap for dynamic
// memory managers.
//
// Go's runtime is garbage collected, so a manual allocator cannot manage
// real process memory the way the C allocators studied by Atienza et al.
// (DATE 2004) do. Instead, every manager in this repository operates on a
// Heap: a growable arena with an sbrk-style program break plus mmap-like
// side segments. The break region is backed by fixed-size host chunks
// (64 KiB), added as the break grows and never copied, so simulating a
// footprint costs about that footprint in host memory. Allocator
// metadata (block headers, footers, free-list links) is stored in-band
// inside the arena, exactly as a C allocator stores it in process
// memory, so per-block overhead, fragmentation and footprint
// measurements are byte-accurate.
//
// Addresses are 32-bit offsets (type Addr), matching the 32-bit embedded
// targets the paper considers; in-band pointer fields therefore cost four
// bytes. Address 0 is reserved as the nil address.
//
// The Heap tracks the high-water mark of memory requested from the
// "system" (break high-water plus mapped-segment high-water). This is the
// paper's figure of merit: maximum memory footprint.
//
// # Cost model
//
// Footprint is one axis of the paper's evaluation; execution time is the
// other. Simulated managers charge architecture-neutral work units
// (internal/mm's Cost* weights) for every probe, link update, header
// write and system call, so "how long would this policy take" is modeled
// independently of how fast the simulator itself runs. The heap's own
// accessors are engineered to keep simulator overhead out of that
// measurement: the word accessors (U32/PutU32 and friends) serve the sbrk
// region only, where one bounds compare and one chunk-boundary compare
// select an inline read/write into the chunk (the address's high bits
// index the chunk table, its low bits the chunk), and a miss panics in
// line with the heap's ErrBadAddress fault value; PutBits rewrites some
// bits of a word with one lookup. Mapped segments are reached through
// Bytes, whose lookups hit a last-used cache before binary search. Policy
// outputs (footprint, live bytes, work units) are invariant under these
// optimizations — the golden differential test pins them, including an
// FNV checksum of every heap byte.
package heap
