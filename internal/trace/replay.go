package trace

import (
	"context"
	"fmt"

	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

// Point is one sample of the footprint evolution during replay — the data
// behind Figure 5 of the paper.
type Point struct {
	Index     int   // event index
	Tick      int64 // application time
	Footprint int64 // bytes requested from the system
	Live      int64 // bytes requested by the application
}

// Result summarizes a replay run.
type Result struct {
	Manager      string
	TraceName    string
	Events       int
	MaxFootprint int64 // peak system memory: the paper's metric
	MaxLive      int64 // peak requested bytes (lower bound)
	Final        int64 // footprint after the last event
	Work         mm.Work
	Stats        mm.Stats
	Series       []Point // populated when RunOpts.SampleEvery > 0
}

// Overhead returns MaxFootprint relative to the workload's peak live bytes
// (1.0 = perfect).
func (r Result) Overhead() float64 {
	if r.MaxLive == 0 {
		return 0
	}
	return float64(r.MaxFootprint) / float64(r.MaxLive)
}

// RunOpts configures a replay.
type RunOpts struct {
	// SampleEvery records a Series point every N events (0 = no series).
	SampleEvery int
}

// liveTable maps allocation IDs to payload addresses during replay. It
// has two forms, and the source picks one. The in-memory source pre-scans
// its events: a Builder trace has dense sequential IDs, so the table is a
// flat slice indexed by ID, allocated once — no per-event hashing or
// allocation. Every other source uses the open-addressing mm.Table,
// whose size follows the live set rather than the trace length.
// Address Nil marks a dead ID: managers never hand out the nil address.
//
// set and take must stay inlinable into the replay kernel, with the
// hashed form called out of line: the dense form is Table 1's fast path.
type liveTable struct {
	dense  []heap.Addr // nil selects the hashed form
	hashed mm.Table
}

// newLiveTable returns the dense form for events whose IDs index a slice
// of modest size, and the hashed form otherwise.
func newLiveTable(events []Event) liveTable {
	maxID, minID := int64(-1), int64(0)
	for i := range events {
		if id := events[i].ID; id > maxID {
			maxID = id
		} else if id < minID {
			minID = id
		}
	}
	// A Builder trace has one alloc event per ID, so maxID+1 never
	// exceeds the event count; tolerate mild sparseness beyond that.
	// Negative IDs (possible only in hand-built in-memory traces — the
	// binary decoders reject them) are not slice-indexable and force the
	// hashed form.
	if minID >= 0 && maxID < 2*int64(len(events))+64 {
		return liveTable{dense: make([]heap.Addr, maxID+1)}
	}
	return liveTable{}
}

func (lt *liveTable) set(id int64, p heap.Addr) {
	if lt.dense == nil {
		lt.hashed.Put(uint64(id), int64(p))
		return
	}
	lt.dense[id] = p
}

// take returns the live address for id and forgets it; Nil means id is
// not live. The dense form needs no range check: the pre-scan sized it
// for every ID its events name.
func (lt *liveTable) take(id int64) (p heap.Addr) {
	if lt.dense == nil {
		return lt.takeHashed(id)
	}
	p, lt.dense[id] = lt.dense[id], heap.Nil
	return p
}

// takeHashed is take's hashed form, kept out of line so that take itself
// fits the inliner's budget.
//
//go:noinline
func (lt *liveTable) takeHashed(id int64) heap.Addr {
	p, _ := lt.hashed.Take(uint64(id))
	return heap.Addr(p)
}

// Replayer is the replay kernel: the one place trace events turn into
// Manager calls. It holds the manager, the live table, the running
// Result and the global index of the next event; Apply feeds it a batch.
// RunSource is the driver around it, fetching batches from a Source.
type Replayer struct {
	m    mm.Manager
	live liveTable
	res  Result
	next int // global index of the next event
	opts RunOpts
}

// NewReplayer returns a kernel replaying the trace named name against m
// from its first event, with the hashed live table.
func NewReplayer(m mm.Manager, name string, opts RunOpts) *Replayer {
	return &Replayer{m: m, res: Result{Manager: m.Name(), TraceName: name}, opts: opts}
}

// Apply replays events, the next len(events) events of the trace, in
// order. On error the replayer's state is undefined; the error names the
// trace, the manager and the global event index.
func (r *Replayer) Apply(events []Event) error {
	m, every := r.m, r.opts.SampleEvery
	//dmm:hotloop
	for k := range events {
		e := &events[k]
		switch e.Kind {
		case KindAlloc:
			p, err := m.Alloc(mm.Request{Size: e.Size, Tag: int(e.Tag), Phase: int(e.Phase)})
			if err != nil {
				return r.fail(k, fmt.Errorf("alloc %d bytes: %w", e.Size, err))
			}
			r.live.set(e.ID, p)
		case KindFree:
			p := r.live.take(e.ID)
			if p == heap.Nil {
				return r.fail(k, fmt.Errorf("free of unknown id %d", e.ID))
			}
			if err := m.Free(p); err != nil {
				return r.fail(k, fmt.Errorf("free id %d: %w", e.ID, err))
			}
		default:
			return r.fail(k, fmt.Errorf("bad kind %d", e.Kind))
		}
		if every > 0 && (r.next+k)%every == 0 {
			r.res.Series = append(r.res.Series, Point{
				Index: r.next + k, Tick: e.Tick, Footprint: m.Footprint(), Live: m.Stats().LiveBytes,
			})
		}
	}
	r.next += len(events)
	r.res.Events += len(events)
	return nil
}

// fail wraps err with the trace, the manager and the global index of the
// k-th event of the batch being applied; outside Apply, k = 0 names the
// next event.
func (r *Replayer) fail(k int, err error) error {
	return fmt.Errorf("replay %q on %s: event %d: %w", r.res.TraceName, r.res.Manager, r.next+k, err)
}

// Result returns the events replayed so far with the manager's current
// end-of-replay statistics.
func (r *Replayer) Result() Result {
	res := r.res
	res.MaxFootprint = r.m.MaxFootprint()
	res.Final = r.m.Footprint()
	res.Stats = r.m.Stats()
	res.MaxLive = res.Stats.MaxLive
	res.Work = res.Stats.Work
	return res
}

// Run replays a trace against a manager, returning footprint statistics.
// The manager is used as-is: construct a fresh manager for each
// independent run. Cancelling ctx stops the replay between batches and
// returns the context's error; a nil ctx is treated as context.Background.
//
// Run is the in-memory form of RunSource: the two produce identical
// results for the same event sequence.
func Run(ctx context.Context, m mm.Manager, t *Trace, opts RunOpts) (Result, error) {
	return RunSource(ctx, m, t.Source(), opts)
}

// RunSource replays an event stream against a manager. It is the
// out-of-core replay path: memory is bounded by the source's own needs
// plus a live-pointer table proportional to the application's live set —
// independent of the trace length — so a trace decoded straight off disk
// (DecodeBinarySource) replays without ever being materialized.
//
// The source is consumed to exhaustion (or to the first error) and, when
// it holds resources, released via Close. Results are identical to Run
// on the materialized equivalent of the stream.
func RunSource(ctx context.Context, m mm.Manager, src Source, opts RunOpts) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer Close(src)
	r := NewReplayer(m, src.Name(), opts)
	// The in-memory source hands out zero-copy sub-slices of its events
	// and keeps the dense live table; every other source fills a reused
	// buffer, through NextBatch when it has one.
	ss, inMem := src.(*sliceSource)
	var buf []Event
	if inMem {
		r.live = newLiveTable(ss.t.Events[ss.i:])
	} else {
		buf = make([]Event, BatchLen)
	}
	for {
		if err := ctx.Err(); err != nil {
			return r.res, r.fail(0, err)
		}
		var batch []Event
		var berr error
		if inMem {
			batch = ss.batch(BatchLen)
		} else {
			n, err := ReadBatch(src, buf)
			batch, berr = buf[:n], err
		}
		if err := r.Apply(batch); err != nil {
			return r.res, err
		}
		if berr != nil {
			// The events before the error replayed above, so the failing
			// index is the first one the source could not produce.
			return r.res, r.fail(0, berr)
		}
		if len(batch) == 0 {
			return r.Result(), nil
		}
	}
}
