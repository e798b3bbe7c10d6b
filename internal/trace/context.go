package trace

import "context"

// WithContext wraps src so its Next fails with the context's error once
// ctx is cancelled — the hook that lets a CLI reading a multi-gigabyte
// trace stop promptly on SIGINT instead of finishing the pass. The
// wrapper forwards Name and Close; cancellation latches, and the
// underlying source is closed when it fires so no handle outlives the
// abort.
func WithContext(ctx context.Context, src Source) Source {
	return &contextSource{ctx: ctx, src: src}
}

type contextSource struct {
	ctx  context.Context
	src  Source
	done bool
	err  error
}

func (s *contextSource) Name() string { return s.src.Name() }

func (s *contextSource) Next() (Event, bool, error) {
	if s.done {
		return Event{}, false, s.err
	}
	if err := s.ctx.Err(); err != nil {
		s.done, s.err = true, err
		Close(s.src)
		return Event{}, false, err
	}
	return s.src.Next()
}

// NextBatch implements BatchSource with one cancellation check per
// batch, delegating to the wrapped source's batching (or a Next loop
// via ReadBatch) — so batch-aware consumers behind a context wrapper
// keep bulk decode.
func (s *contextSource) NextBatch(dst []Event) (int, error) {
	if s.done {
		return 0, s.err
	}
	if err := s.ctx.Err(); err != nil {
		s.done, s.err = true, err
		Close(s.src)
		return 0, err
	}
	return ReadBatch(s.src, dst)
}

// Close implements io.Closer by delegating to the wrapped source.
func (s *contextSource) Close() error {
	s.done = true
	return Close(s.src)
}

// SinkWithContext wraps sink so WriteEvent fails with the context's
// error once ctx is cancelled — the write-side dual of WithContext, for
// generators piping a long trace to disk. Begin is forwarded as-is (it
// runs once, before any meaningful work).
func SinkWithContext(ctx context.Context, sink EventSink) EventSink {
	return &contextSink{ctx: ctx, sink: sink}
}

type contextSink struct {
	ctx  context.Context
	sink EventSink
}

func (s *contextSink) Begin(name string) error { return s.sink.Begin(name) }

func (s *contextSink) WriteEvent(e Event) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	return s.sink.WriteEvent(e)
}
