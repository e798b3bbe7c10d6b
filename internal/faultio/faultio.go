// Package faultio injects deterministic I/O faults into readers, trace
// sources and trace openers, so robustness tests can prove — rather
// than hope — that every failure mode of the storage layer surfaces as
// a clean error or an identical result, never a panic or silent
// corruption.
//
// Faults are described by a Plan: a list of byte-offset-addressed
// events (short reads, transient errors, hard errors, bit flips)
// applied by NewReader as the stream passes through. RandomPlan derives
// a plan deterministically from a seed, which is how the differential
// suite sweeps a reproducible corpus of failure scenarios; targeted
// tests build plans by hand.
//
// NewSource and NewOpener lift fault injection to the trace layer:
// failing (or panicking) at a chosen event index, and failing a chosen
// Open attempt, respectively.
package faultio

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"dmmkit/internal/trace"
)

// ErrInjected is the terminal error hard faults return; tests assert on
// it (via errors.Is) to tell injected failures from real ones.
var ErrInjected = errors.New("faultio: injected I/O error")

// TransientError is the error injected transient faults return: the
// failing Read or Open succeeds if called again.
type TransientError struct {
	// Offset is the stream position at which the fault fired.
	Offset int64
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("faultio: injected transient error at byte %d", e.Offset)
}

// Kind enumerates the injectable byte-stream faults.
type Kind int

const (
	// ShortRead truncates the Read that crosses the fault's offset: the
	// call returns fewer bytes than it had room for, with no error —
	// legal io.Reader behavior that shakes out callers assuming full
	// reads.
	ShortRead Kind = iota
	// Transient fails the Read that reaches the fault's offset once,
	// with a *TransientError; the next attempt proceeds.
	Transient
	// Hard fails the Read that reaches the fault's offset with
	// ErrInjected, permanently.
	Hard
	// CorruptBit flips Bit of the byte at the fault's offset as it is
	// read, leaving the underlying data untouched.
	CorruptBit
)

func (k Kind) String() string {
	switch k {
	case ShortRead:
		return "short-read"
	case Transient:
		return "transient"
	case Hard:
		return "hard"
	case CorruptBit:
		return "corrupt-bit"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one injectable event, addressed by the byte offset in the
// stream at which it fires.
type Fault struct {
	Kind   Kind
	Offset int64
	Bit    uint8 // for CorruptBit: which bit of the byte to flip (0-7)
}

// Plan is a deterministic fault schedule for one pass over a stream.
type Plan struct {
	Faults []Fault
}

// RandomPlan derives a reproducible plan of n faults for a stream of
// size bytes: offsets, kinds and bits all come from the seed. The same
// (seed, size, n) always yields the same plan. A size of zero or n of
// zero yields an empty plan.
func RandomPlan(seed int64, size int64, n int) Plan {
	if size <= 0 || n <= 0 {
		return Plan{}
	}
	rng := rand.New(rand.NewSource(seed))
	faults := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		faults = append(faults, Fault{
			Kind:   Kind(rng.Intn(4)),
			Offset: rng.Int63n(size),
			Bit:    uint8(rng.Intn(8)),
		})
	}
	return Plan{Faults: faults}
}

// reader applies a plan to a byte stream. Faults fire in offset order;
// several faults at one offset fire on successive reads in plan order.
type reader struct {
	r      io.Reader
	faults []Fault // sorted by offset, stable
	off    int64   // bytes yielded so far
	next   int     // first unfired fault
}

// NewReader returns a reader over r that injects plan's faults as the
// stream passes through. The reader is deterministic: the same
// underlying bytes and plan produce the same observable sequence of
// reads, errors and corrupted bytes regardless of the caller's buffer
// sizes (corruption is position-addressed, and error faults fire when
// the stream position reaches their offset).
func NewReader(r io.Reader, plan Plan) io.Reader {
	faults := append([]Fault(nil), plan.Faults...)
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].Offset < faults[j].Offset })
	return &reader{r: r, faults: faults}
}

func (f *reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	// Error faults positioned at the current offset fire before any
	// bytes move; a transient fault is consumed by firing, a hard fault
	// stays armed forever.
	for f.next < len(f.faults) && f.faults[f.next].Offset <= f.off {
		fault := f.faults[f.next]
		switch fault.Kind {
		case Transient:
			f.next++
			return 0, &TransientError{Offset: f.off}
		case Hard:
			return 0, fmt.Errorf("faultio: at byte %d: %w", f.off, ErrInjected)
		default:
			// ShortRead at or behind the position can no longer truncate
			// anything; CorruptBit behind the position missed its byte.
			// Both are spent.
			f.next++
		}
	}
	// A pending short read truncates this call at its offset; a pending
	// error fault must not be jumped over by one large read.
	limit := len(p)
	for i := f.next; i < len(f.faults); i++ {
		fault := f.faults[i]
		if fault.Offset >= f.off+int64(limit) {
			break
		}
		switch fault.Kind {
		case ShortRead, Transient, Hard:
			if span := int(fault.Offset - f.off); span > 0 && span < limit {
				limit = span
			}
		}
	}
	n, err := f.r.Read(p[:limit])
	// Corruption faults inside the returned window fire now, position-
	// addressed so buffer-size choices cannot shift which byte flips.
	for i := f.next; i < len(f.faults); i++ {
		fault := f.faults[i]
		if fault.Offset >= f.off+int64(n) {
			break
		}
		if fault.Kind == CorruptBit {
			p[fault.Offset-f.off] ^= 1 << (fault.Bit & 7)
		}
	}
	f.off += int64(n)
	// Retire everything the stream has moved past (corrupt faults just
	// applied, short reads that fired as the limit above).
	for f.next < len(f.faults) && f.faults[f.next].Offset < f.off {
		f.next++
	}
	return n, err
}

// SourceFaults injects faults at the trace-event level: the stream
// fails (or panics) when the chosen event index is reached.
type SourceFaults struct {
	// FailAt, when >= 0, makes Next return Err (default ErrInjected)
	// instead of event FailAt.
	FailAt int
	// Err replaces ErrInjected as the injected failure.
	Err error
	// PanicAt, when >= 0, makes Next panic instead of returning event
	// PanicAt — the probe for panic-isolation layers.
	PanicAt int
}

// NewSource wraps src with event-level fault injection. Pass -1 for the
// indexes that should not fire.
func NewSource(src trace.Source, f SourceFaults) trace.Source {
	return &faultSource{src: src, f: f}
}

type faultSource struct {
	src trace.Source
	f   SourceFaults
	i   int
	err error
}

func (s *faultSource) Name() string { return s.src.Name() }

func (s *faultSource) Next() (trace.Event, bool, error) {
	if s.err != nil {
		return trace.Event{}, false, s.err
	}
	if s.f.PanicAt >= 0 && s.i == s.f.PanicAt {
		panic(fmt.Sprintf("faultio: injected panic at event %d", s.i))
	}
	if s.f.FailAt >= 0 && s.i == s.f.FailAt {
		err := s.f.Err
		if err == nil {
			err = fmt.Errorf("faultio: at event %d: %w", s.i, ErrInjected)
		}
		s.err = err
		trace.Close(s.src)
		return trace.Event{}, false, err
	}
	e, ok, err := s.src.Next()
	if ok {
		s.i++
	}
	return e, ok, err
}

// Close implements io.Closer by delegating to the wrapped source.
func (s *faultSource) Close() error { return trace.Close(s.src) }

// OpenerFaults schedules failures of an Opener's Open calls by attempt
// number (1-based, counted across all callers).
type OpenerFaults struct {
	// TransientAttempts lists the attempt numbers that fail with a
	// *TransientError.
	TransientAttempts []int
	// HardAttempts lists the attempt numbers that fail with ErrInjected.
	HardAttempts []int
	// Source, when non-nil, wraps every successfully opened source.
	Source func(trace.Source) trace.Source
}

// NewOpener wraps op with open-time fault injection. The attempt
// counter is shared across goroutines (Open must be concurrency-safe),
// so attempt-numbered faults are deterministic only for sequential
// callers, which is how the tests use it.
func NewOpener(op trace.Opener, f OpenerFaults) trace.Opener {
	return &faultOpener{op: op, f: f}
}

type faultOpener struct {
	op      trace.Opener
	f       OpenerFaults
	mu      sync.Mutex
	attempt int
}

func (o *faultOpener) Open() (trace.Source, error) {
	o.mu.Lock()
	o.attempt++
	attempt := o.attempt
	o.mu.Unlock()
	for _, a := range o.f.TransientAttempts {
		if a == attempt {
			return nil, &TransientError{Offset: -1}
		}
	}
	for _, a := range o.f.HardAttempts {
		if a == attempt {
			return nil, fmt.Errorf("faultio: open attempt %d: %w", attempt, ErrInjected)
		}
	}
	src, err := o.op.Open()
	if err != nil {
		return nil, err
	}
	if o.f.Source != nil {
		src = o.f.Source(src)
	}
	return src, nil
}
