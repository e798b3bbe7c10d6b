package mm

import (
	"errors"

	"dmmkit/internal/heap"
)

// Common manager errors.
var (
	// ErrOutOfMemory mirrors heap.ErrOutOfMemory for callers that only
	// import mm.
	ErrOutOfMemory = heap.ErrOutOfMemory
	// ErrBadFree is returned when freeing an address the manager does not
	// recognize as a live block.
	ErrBadFree = errors.New("mm: free of unknown or dead block")
	// ErrBadSize is returned for non-positive allocation sizes.
	ErrBadSize = errors.New("mm: allocation size must be positive")
)

// Request describes one allocation. Size is the number of payload bytes the
// application needs. Tag identifies the allocation site or data type (used
// by region managers and profiling); Phase is the behavioural phase the
// application is in (used by global managers, Sec. 3.3 of the paper).
type Request struct {
	Size  int64
	Tag   int
	Phase int
}

// Manager is a dynamic memory manager operating on a simulated heap.
// Implementations are single-threaded, as on the paper's embedded targets.
type Manager interface {
	// Alloc returns the payload address of a block of at least req.Size
	// bytes.
	Alloc(req Request) (heap.Addr, error)
	// Free releases the block whose payload address is addr.
	Free(addr heap.Addr) error
	// Footprint returns the bytes currently requested from the system.
	Footprint() int64
	// MaxFootprint returns the high-water mark of Footprint: the paper's
	// figure of merit.
	MaxFootprint() int64
	// Stats returns cumulative counters.
	Stats() Stats
	// Name identifies the manager in tables and logs.
	Name() string
}

// Checksummer is implemented by managers that can digest their full
// simulated-heap state into one value. Two managers that evolved
// through the same event sequence from the same start state must agree,
// and a call that fails must leave the digest unchanged (the conformance
// suite checks that).
type Checksummer interface {
	StateChecksum() uint64
}

// Stats holds cumulative manager counters. LiveBytes/LiveBlocks describe
// requested payload bytes currently held by the application; gross bytes
// (including headers and rounding) are visible through Footprint.
type Stats struct {
	Allocs     int64 // successful allocations
	Frees      int64 // successful frees
	FailedOps  int64 // allocations or frees that returned an error
	LiveBytes  int64 // requested payload bytes currently live
	LiveBlocks int64 // blocks currently live
	MaxLive    int64 // high-water mark of LiveBytes
	GrossLive  int64 // block bytes (payload+overhead) currently live
	Splits     int64 // block splits performed
	Coalesces  int64 // block merges performed
	Work       Work  // accumulated work units (execution-time proxy)
}

// InternalFrag returns the fraction of live gross bytes lost to headers and
// size rounding, in [0,1). It is 0 when nothing is live.
func (s Stats) InternalFrag() float64 {
	if s.GrossLive <= 0 {
		return 0
	}
	return 1 - float64(s.LiveBytes)/float64(s.GrossLive)
}

// Work is an architecture-neutral execution-time proxy, accumulated in
// abstract work units. The weights approximate the relative cost of
// allocator operations on an embedded core with single-cycle word access:
// following a pointer or examining a header costs about one memory access;
// splitting/coalescing rewrites several header/footer/link words; an sbrk
// is a system call.
type Work int64

// Cost weights for the Work model.
const (
	CostProbe    Work = 1  // examine one free block / follow one link
	CostIndex    Work = 1  // size-class or bin index computation
	CostUnlink   Work = 2  // remove a block from a free list
	CostLink     Work = 2  // insert a block into a free list
	CostHeader   Work = 1  // write one header/footer word
	CostSplit    Work = 6  // carve a block in two (headers + links)
	CostCoalesce Work = 6  // merge two blocks (headers + links)
	CostSbrk     Work = 40 // extend the break (system call)
	CostTrim     Work = 40 // shrink the break / unmap (system call)
)

// Accounting implements the bookkeeping half of Manager. Managers embed it
// and call the note* helpers; it is not safe for concurrent use.
type Accounting struct {
	stats Stats
}

// Stats returns the accumulated counters.
func (a *Accounting) Stats() Stats { return a.stats }

// NoteAlloc records a successful allocation of req bytes occupying gross
// block bytes.
func (a *Accounting) NoteAlloc(req, gross int64) {
	a.stats.Allocs++
	a.stats.LiveBytes += req
	a.stats.LiveBlocks++
	a.stats.GrossLive += gross
	if a.stats.LiveBytes > a.stats.MaxLive {
		a.stats.MaxLive = a.stats.LiveBytes
	}
}

// NoteFree records a successful free of a block allocated for req bytes in
// gross block bytes.
func (a *Accounting) NoteFree(req, gross int64) {
	a.stats.Frees++
	a.stats.LiveBytes -= req
	a.stats.LiveBlocks--
	a.stats.GrossLive -= gross
}

// NoteFail records a failed operation.
func (a *Accounting) NoteFail() { a.stats.FailedOps++ }

// NoteSplit records a block split.
func (a *Accounting) NoteSplit() { a.stats.Splits++; a.stats.Work += CostSplit }

// NoteCoalesce records a block merge.
func (a *Accounting) NoteCoalesce() { a.stats.Coalesces++; a.stats.Work += CostCoalesce }

// Charge adds w work units.
func (a *Accounting) Charge(w Work) { a.stats.Work += w }

// ChargeN adds n repetitions of w work units.
func (a *Accounting) ChargeN(w Work, n int64) { a.stats.Work += Work(int64(w) * n) }
