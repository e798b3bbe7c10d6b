package trace

import "io"

// Source streams the events of one logical trace, in order. It is the
// read-side abstraction the replay engine, the profiler and the explore
// engine consume: an in-memory Trace is one implementation, and a DMMT2
// trace file decoded on the fly (DecodeBinarySource) is another, so a
// multi-hour capture replays with memory bounded by the application's
// live set instead of the trace length.
//
// A Source is single-use and not safe for concurrent use; obtain
// independent passes from an Opener. Sources that hold resources (an open
// file) implement io.Closer; consumers that abandon a source early should
// pass it to Close.
type Source interface {
	// Name reports the trace's name, for result labelling.
	Name() string
	// Next returns the next event. ok is false when the stream is
	// exhausted; a non-nil error (ok false too) means the stream is
	// corrupt or unreadable and the replay cannot continue.
	Next() (e Event, ok bool, err error)
}

// Opener yields independent sequential passes over one logical trace.
// Exploration replays the same trace once per candidate, so it consumes
// an Opener rather than a single-use Source. *Trace and *File implement
// it; Open must be safe for concurrent use (candidates evaluate in
// parallel, each on its own Source).
type Opener interface {
	Open() (Source, error)
}

// Close releases a source's resources, if it holds any: sources over
// open files implement io.Closer, in-memory sources do not. It is safe
// on every Source and idempotent for the sources of this package.
func Close(s Source) error {
	if c, ok := s.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Source returns a Source reading the trace from memory. The replay of a
// trace through its Source is identical — footprint, work, system stats —
// to replaying the trace directly.
func (t *Trace) Source() Source { return &sliceSource{t: t} }

// Open implements Opener: every call returns an independent in-memory
// pass. It never fails and is safe for concurrent use.
func (t *Trace) Open() (Source, error) { return t.Source(), nil }

// sliceSource iterates a materialized trace. RunSource recognizes it: the
// replay kernel gets zero-copy sub-slices of the events (batch) and the
// dense live-pointer table.
type sliceSource struct {
	t *Trace
	i int
}

func (s *sliceSource) Name() string { return s.t.Name }

func (s *sliceSource) Next() (Event, bool, error) {
	if s.i >= len(s.t.Events) {
		return Event{}, false, nil
	}
	e := s.t.Events[s.i]
	s.i++
	return e, true, nil
}

// EventSink consumes an event stream: the write-side dual of Source.
// Begin is called once with the trace's name before the first event;
// WriteEvent receives every event in order. Flushing or closing the
// underlying medium is the creator's job, not the sink's.
//
// The streaming Encoder is an EventSink, so trace generation can pipe
// straight to disk without materializing an event slice (see
// Builder/NewBuilderTo and WorkloadOpts.Sink in the registry).
type EventSink interface {
	Begin(name string) error
	WriteEvent(e Event) error
}

// StatsSink wraps an EventSink, counting events and tracking the peak of
// concurrently live bytes as the stream passes through — the summary a
// generator wants to report when the events themselves are not kept.
// Its memory is O(live set): one map entry per currently live allocation.
// A nil Sink makes StatsSink a pure counter.
type StatsSink struct {
	Sink EventSink

	name   string
	events int
	live   map[int64]int64
	cur    int64
	max    int64
}

// Begin implements EventSink.
func (s *StatsSink) Begin(name string) error {
	s.name = name
	if s.live == nil {
		s.live = make(map[int64]int64)
	}
	if s.Sink != nil {
		return s.Sink.Begin(name)
	}
	return nil
}

// WriteEvent implements EventSink.
func (s *StatsSink) WriteEvent(e Event) error {
	s.events++
	if s.live == nil {
		s.live = make(map[int64]int64)
	}
	switch e.Kind {
	case KindAlloc:
		s.live[e.ID] = e.Size
		s.cur += e.Size
		if s.cur > s.max {
			s.max = s.cur
		}
	case KindFree:
		s.cur -= s.live[e.ID]
		delete(s.live, e.ID)
	}
	if s.Sink != nil {
		return s.Sink.WriteEvent(e)
	}
	return nil
}

// TraceName returns the name passed to Begin.
func (s *StatsSink) TraceName() string { return s.name }

// Events returns the number of events written so far.
func (s *StatsSink) Events() int { return s.events }

// MaxLiveBytes returns the peak of concurrently live bytes observed.
func (s *StatsSink) MaxLiveBytes() int64 { return s.max }
