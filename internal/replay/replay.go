// Package replay shards one long trace replay across phase
// checkpoints. A single sequential pass (Build) snapshots the manager —
// simulated heap, in-band structures, live-pointer table — at phase
// boundaries into an in-memory Phases index; the trace then replays as
// K independent windows in parallel (Replay), each continuing from its
// snapshot's clone, with a deterministic merge that is verified
// bit-identical to the sequential pass at every shard seam. The same
// index drives incremental suffix re-runs (ReplayFrom): re-sampling or
// re-verifying a tail costs only the tail.
//
// Sharding never changes results: the snapshot clones carry the full
// prefix state (footprint high-water marks, cumulative stats, heap
// bytes), so shard K's end state is byte-for-byte the sequential state
// at the same event index, and the merged Result equals the sequential
// trace.RunSource Result. The sharded-vs-sequential differential tests
// pin this across every registered workload and manager.
//
// Every replay here runs the trace package's one kernel, trace.Replayer:
// Build feeds it batches split at the snapshot boundaries and forks it at
// each (manager clone plus live table), and a shard forks its snapshot's
// kernel again and feeds it the window.
package replay

import (
	"context"
	"fmt"

	"dmmkit/internal/mm"
	"dmmkit/internal/pool"
	"dmmkit/internal/trace"
)

// Options configures Build.
type Options struct {
	// MaxShards caps the number of replay windows (snapshots, counting
	// the initial state). 0 means DefaultMaxShards.
	MaxShards int
	// Every forces an extra snapshot candidate after this many events,
	// for traces whose phases are long or absent. 0 snapshots at phase
	// boundaries only.
	Every int
	// MinWindow suppresses snapshots closer than this many events to
	// the previous one, bounding index memory on traces that flip
	// phases every few events. 0 means DefaultMinWindow.
	MinWindow int
}

// DefaultMaxShards bounds the index size when Options.MaxShards is 0:
// more shards than cores stops paying once every core is busy, and each
// snapshot holds a full manager clone.
const DefaultMaxShards = 16

// DefaultMinWindow is the minimum events per shard when
// Options.MinWindow is 0. Windows much smaller than this cost more to
// open and verify than they save.
const DefaultMinWindow = 4096

func (o Options) withDefaults() Options {
	if o.MaxShards <= 0 {
		o.MaxShards = DefaultMaxShards
	}
	if o.MinWindow <= 0 {
		o.MinWindow = DefaultMinWindow
	}
	return o
}

// snapshot is the replay state at one event boundary: everything needed
// to continue the replay from index as if the prefix had just run.
type snapshot struct {
	index      int             // global index of the first event of the window
	rep        *trace.Replayer // kernel state after events [0, index)
	pos        trace.Pos       // start of the build batch holding event index
	skip       int             // events from pos to index
	positioned bool            // pos is valid (the build source reported positions)
	want       state           // expected state at the boundary, for seam checks
}

// state is a manager's state at a seam: what a shard's replay must land
// on exactly.
type state struct {
	foot    int64
	maxFoot int64
	stats   mm.Stats
	sum     uint64
	hasSum  bool
}

// stateOf captures m's seam state.
func stateOf(m mm.Manager) state {
	s := state{foot: m.Footprint(), maxFoot: m.MaxFootprint(), stats: m.Stats()}
	if cs, ok := m.(mm.Checksummer); ok {
		s.sum, s.hasSum = cs.StateChecksum(), true
	}
	return s
}

// diverge reports how got differs from want — footprint, high-water
// mark, cumulative stats, and the state checksum when both sides have
// one — or nil when it does not.
func diverge(got, want state) error {
	switch {
	case got.foot != want.foot, got.maxFoot != want.maxFoot:
		return fmt.Errorf("footprint %d/%d, want %d/%d", got.foot, got.maxFoot, want.foot, want.maxFoot)
	case got.stats != want.stats:
		return fmt.Errorf("stats %+v, want %+v", got.stats, want.stats)
	case got.hasSum && want.hasSum && got.sum != want.sum:
		return fmt.Errorf("state checksum %016x, want %016x", got.sum, want.sum)
	}
	return nil
}

// Phases is an immutable index over one (manager, trace) pair: the
// snapshots Build captured plus the sequential end state. Replay and
// ReplayFrom clone the snapshots they start from, so a Phases can be
// replayed any number of times, concurrently.
type Phases struct {
	name  string
	op    trace.Opener
	mem   *trace.Trace // non-nil when the trace is in memory: shard by slicing
	snaps []snapshot
	total int   // total events in the trace
	final state // sequential end state
}

// Shards returns the number of parallel windows Replay will run.
func (p *Phases) Shards() int { return len(p.snaps) }

// Events returns the total event count of the indexed trace.
func (p *Phases) Events() int { return p.total }

// Boundary returns the global event index at which shard k starts.
func (p *Phases) Boundary(k int) int { return p.snaps[k].index }

// Build replays the trace once, sequentially, against m — which must
// implement mm.Cloner — snapshotting the full replay state at phase
// boundaries (plus every Options.Every events when set). It returns the
// index and the sequential replay Result, which is identical to
// trace.RunSource on the same pair. m is consumed: it holds the final
// replay state afterwards.
//
// When the build source reports positions (a DMMT2 file), shards later
// resume by seeking to the start of the batch holding their first event
// and skipping to it; otherwise file shards re-decode and skip their
// prefix, and in-memory traces slice directly.
func Build(ctx context.Context, m mm.Manager, op trace.Opener, opts Options) (*Phases, trace.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := m.(mm.Cloner); !ok {
		return nil, trace.Result{}, fmt.Errorf("replay: manager %s does not support cloning", m.Name())
	}
	opts = opts.withDefaults()
	src, err := op.Open()
	if err != nil {
		return nil, trace.Result{}, err
	}
	defer trace.Close(src)

	p := &Phases{name: src.Name(), op: op}
	if t, ok := op.(*trace.Trace); ok {
		p.mem = t
	}
	pos, positioned := src.(trace.Positioner)
	r := trace.NewReplayer(m, p.name, trace.RunOpts{})
	var at trace.Pos // position of the current batch's first event
	snap := func(i, skip int) error {
		rep, err := r.Fork(trace.RunOpts{})
		if err != nil {
			return fmt.Errorf("replay: snapshot at event %d: %w", i, err)
		}
		if _, ok := rep.Manager().(mm.Cloner); !ok {
			return fmt.Errorf("replay: clone of %s is not itself cloneable", m.Name())
		}
		p.snaps = append(p.snaps, snapshot{
			index: i, rep: rep,
			pos: at, skip: skip, positioned: positioned,
			want: stateOf(m),
		})
		return nil
	}
	if positioned {
		at = pos.Pos()
	}
	if err := snap(0, 0); err != nil {
		return nil, trace.Result{}, err
	}

	// Each batch is applied in pieces split at the snapshot boundaries.
	buf := make([]trace.Event, trace.BatchLen)
	var lastPhase int32
	sinceSnap, base := 0, 0 // base: global index of the batch's first event
	for {
		if err := ctx.Err(); err != nil {
			return nil, trace.Result{}, fmt.Errorf("replay: build %q on %s: event %d: %w", p.name, m.Name(), base, err)
		}
		if positioned {
			at = pos.Pos()
		}
		n, berr := trace.ReadBatch(src, buf)
		events, start := buf[:n], 0
		for j := range events {
			phase := events[j].Phase
			boundary := (base+j > 0 && phase != lastPhase) || (opts.Every > 0 && sinceSnap >= opts.Every)
			lastPhase = phase
			if boundary && sinceSnap >= opts.MinWindow && len(p.snaps) < opts.MaxShards {
				if err := r.Apply(events[start:j]); err != nil {
					return nil, trace.Result{}, fmt.Errorf("replay: build: %w", err)
				}
				if err := snap(base+j, j); err != nil {
					return nil, trace.Result{}, err
				}
				start, sinceSnap = j, 0
			}
			sinceSnap++
		}
		if err := r.Apply(events[start:]); err != nil {
			return nil, trace.Result{}, fmt.Errorf("replay: build: %w", err)
		}
		base += n
		if berr != nil {
			return nil, trace.Result{}, fmt.Errorf("replay: build %q on %s: event %d: %w", p.name, m.Name(), base, berr)
		}
		if n == 0 {
			break
		}
	}
	p.total = base
	p.final = stateOf(m)
	return p, r.Result(), nil
}

// Replay runs every window as an independent shard over internal/pool
// at the given parallelism (<= 0 selects GOMAXPROCS) and merges: each
// shard forks its snapshot, replays its window, and must land exactly
// on the next snapshot's state — footprint, high-water mark, cumulative
// stats, and state checksum are all verified at every seam, and the
// last shard against the sequential end state. The merged Result is
// bit-identical to the sequential one; opts.SampleEvery samples at
// global indices, so even the Series matches trace.RunSource's.
func (p *Phases) Replay(ctx context.Context, parallelism int, opts trace.RunOpts) (trace.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	K := len(p.snaps)
	if K == 0 {
		return trace.Result{}, fmt.Errorf("replay: empty index")
	}
	results := make([]trace.Result, K)
	ends := make([]state, K)
	err := pool.Run(ctx, parallelism, K, func(k int) error {
		r, end, err := p.replayShard(ctx, k, opts)
		if err != nil {
			return err
		}
		results[k] = r
		ends[k] = end
		return nil
	})
	if err != nil {
		return trace.Result{}, err
	}
	for k := 0; k < K; k++ {
		want := p.final
		if k+1 < K {
			want = p.snaps[k+1].want
		}
		if err := diverge(ends[k], want); err != nil {
			return trace.Result{}, fmt.Errorf("replay: shard %d of %q diverged at seam: %w", k, p.name, err)
		}
	}
	merged := results[K-1]
	merged.Events = p.total
	merged.TraceName = p.name
	if opts.SampleEvery > 0 {
		var series []trace.Point
		for k := range results {
			series = append(series, results[k].Series...)
		}
		merged.Series = series
	}
	return merged, nil
}

// ReplayFrom replays only the suffix starting at shard k, sequentially,
// on a fork of that shard's snapshot — the incremental path: re-running
// a tail (denser sampling, a seam re-verification) costs only the tail.
// Its end state must equal the sequential one in every seam-checked
// field, and the returned Result carries that cumulative end-of-trace
// state; its Series covers only the replayed suffix.
func (p *Phases) ReplayFrom(ctx context.Context, k int, opts trace.RunOpts) (trace.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 0 || k >= len(p.snaps) {
		return trace.Result{}, fmt.Errorf("replay: shard %d out of range [0,%d)", k, len(p.snaps))
	}
	res, end, err := p.replaySpan(ctx, k, p.total, opts)
	if err != nil {
		return trace.Result{}, err
	}
	if err := diverge(end, p.final); err != nil {
		return trace.Result{}, fmt.Errorf("replay: suffix from shard %d of %q diverged from the sequential end state: %w", k, p.name, err)
	}
	res.Events = p.total
	return res, nil
}

// replayShard replays window k (snapshot k up to snapshot k+1 or the
// end of the trace).
func (p *Phases) replayShard(ctx context.Context, k int, opts trace.RunOpts) (trace.Result, state, error) {
	end := p.total
	if k+1 < len(p.snaps) {
		end = p.snaps[k+1].index
	}
	return p.replaySpan(ctx, k, end, opts)
}

// replaySpan forks snapshot k's kernel and replays events
// [snaps[k].index, end) on the fork, returning the window result and the
// fork's end state.
func (p *Phases) replaySpan(ctx context.Context, k, end int, opts trace.RunOpts) (trace.Result, state, error) {
	s := &p.snaps[k]
	r, err := s.rep.Fork(opts)
	if err == nil {
		if p.mem != nil {
			err = applySlices(ctx, r, p.mem.Events[s.index:end])
		} else {
			err = p.streamSpan(ctx, s, end-s.index, r.Apply)
		}
	}
	if err != nil {
		return trace.Result{}, state{}, fmt.Errorf("replay: shard %d of %q (events %d..%d): %w", k, p.name, s.index, end, err)
	}
	return r.Result(), stateOf(r.Manager()), nil
}

// applySlices applies events to r in zero-copy sub-slices of at most
// trace.BatchLen events, checking ctx between them.
func applySlices(ctx context.Context, r *trace.Replayer, events []trace.Event) error {
	for len(events) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(len(events), trace.BatchLen)
		if err := r.Apply(events[:n]); err != nil {
			return err
		}
		events = events[n:]
	}
	return nil
}

// streamSpan hands the n events from snapshot s onwards to apply, in
// batches: it seeks to the start of the snapshot's build batch and skips
// to the snapshot when the Opener supports it, else decodes and skips
// the whole prefix.
func (p *Phases) streamSpan(ctx context.Context, s *snapshot, n int, apply func([]trace.Event) error) error {
	var src trace.Source
	var err error
	skip := s.index
	if oa, ok := p.op.(trace.OpenerAt); ok && s.positioned {
		src, err = oa.OpenAt(s.pos)
		skip = s.skip
	} else {
		src, err = p.op.Open()
	}
	if err != nil {
		return err
	}
	defer trace.Close(src)
	if err := readEvents(ctx, src, skip, nil); err != nil {
		return err
	}
	return readEvents(ctx, src, n, apply)
}

// readEvents reads exactly n events from src in batches, handing each
// batch to fn (a nil fn discards them).
func readEvents(ctx context.Context, src trace.Source, n int, fn func([]trace.Event) error) error {
	buf := make([]trace.Event, trace.BatchLen)
	for done := 0; done < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		got, err := trace.ReadBatch(src, buf[:min(n-done, len(buf))])
		if fn != nil {
			if err := fn(buf[:got]); err != nil {
				return err
			}
		}
		done += got
		if err != nil {
			return err
		}
		if got == 0 {
			return fmt.Errorf("stream ended %d events short", n-done)
		}
	}
	return nil
}
