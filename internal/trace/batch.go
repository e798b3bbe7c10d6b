package trace

// BatchSource is an optional extension of Source for bulk decoding: a
// consumer hands over a reusable event buffer and gets back as many
// events as the source can produce in one call, amortizing the
// per-event interface dispatch that dominates a streaming replay. The
// DMMT2 decoder and the in-memory source implement it; ReadBatch adapts
// any plain Source.
type BatchSource interface {
	Source
	// NextBatch fills dst with the next events of the stream and
	// reports how many were decoded. n == 0 with a nil error means the
	// stream is exhausted. A non-nil error is terminal and latched —
	// later calls return (0, err) — but may accompany n > 0: the first
	// n events are valid and precede the error, so consumers must
	// process dst[:n] before acting on err.
	NextBatch(dst []Event) (n int, err error)
}

// BatchLen is the event-buffer size the package's own batch consumers
// use. It is large enough to amortize the per-batch call and refill
// cost and small enough (~40 KiB of Events) that a batched replay stays
// O(live set) in memory.
const BatchLen = 1024

// ReadBatch fills dst from src: one NextBatch call when src offers
// batching, otherwise a bounded loop of Next calls (at most len(dst)
// events — cancellation stays the caller's per-batch responsibility)
// with the same contract: events decoded before an error are returned
// alongside it, and n == 0 with a nil error means exhaustion.
func ReadBatch(src Source, dst []Event) (int, error) {
	if b, ok := src.(BatchSource); ok {
		return b.NextBatch(dst)
	}
	return readBatchSlow(src, dst)
}

// readBatchSlow is ReadBatch's per-event fallback.
func readBatchSlow(src Source, dst []Event) (int, error) {
	for n := range dst {
		e, ok, err := src.Next()
		if err != nil || !ok {
			return n, err
		}
		dst[n] = e
	}
	return len(dst), nil
}

// Pos is an exact resume point inside a DMMT2 stream: the byte offset
// of the next undecoded event together with the decode state (event
// index and previous tick) the delta coding needs to continue. A Pos is
// only meaningful for the stream it was captured from (via Positioner)
// and, through OpenerAt, for other handles on the same file.
type Pos struct {
	Off   int64  // byte offset of the next event record
	Index uint64 // events decoded before this point
	Tick  int64  // previous event's tick: the base of the next delta
}

// Positioner is implemented by sources that can report an exact
// mid-stream resume point. The DMMT2 streaming decoder implements it;
// the replay sharder uses it to open suffix passes without re-decoding
// the prefix.
type Positioner interface {
	Pos() Pos
}

// OpenerAt extends Opener with mid-stream passes: OpenAt returns a
// source that yields exactly the events after p, where p came from the
// Pos of a source over the same underlying trace. *File implements it
// for DMMT2 files. Sources opened mid-stream cannot verify the trailer
// checksum (the prefix was never read), so callers should have verified
// the stream once with a full pass first.
type OpenerAt interface {
	Opener
	OpenAt(p Pos) (Source, error)
}

// NextBatch implements BatchSource by copying out of the materialized
// event slice, so wrapped in-memory sources (e.g. behind WithContext)
// keep bulk transfer even when the replay engine cannot see the slice.
func (s *sliceSource) NextBatch(dst []Event) (int, error) {
	n := copy(dst, s.t.Events[s.i:])
	s.i += n
	return n, nil
}

// batch is NextBatch without the copy: the next at most n events, as a
// sub-slice of the trace.
func (s *sliceSource) batch(n int) []Event {
	b := s.t.Events[s.i:min(s.i+n, len(s.t.Events))]
	s.i += len(b)
	return b
}
