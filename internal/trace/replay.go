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
// allocation. Every other source uses the paged form, whose memory
// follows the live set rather than the trace length: a directory indexed
// by id>>liveShift names a page of livePageLen addresses, allocated when
// a page of IDs gets its first live one and recycled through a spare list
// when it empties, in the manner of mm.AddrMap. The open-addressing
// mm.Table holds the IDs outside the directory's range (negative, or at
// least liveCap), and the IDs whose page would break the page budget: a
// page beyond the first liveFloorPages must be paid for by
// liveIDsPerPage live IDs in pages. Address Nil marks a dead ID: managers
// never hand out the nil address.
//
// Memory: the directory is 4 bytes per page of IDs up to the highest one
// set, at most liveCap>>liveShift words (1 MiB). The pages in use never
// exceed liveFloorPages plus one per liveIDsPerPage live IDs: 256 KiB plus
// 256 bytes per live ID, where live IDs strided a page apart would
// otherwise pin 4 KiB each. Emptied pages are kept for reuse, so the pages
// held follow the peak of that budget. The built-in traces stay within
// 4 pages of it without the floor, so on them every ID in range is paged.
//
// set and take must stay inlinable into the replay kernel, with the paged
// form called out of line: the dense form is Table 1's fast path.
type liveTable struct {
	dense  []heap.Addr // nil selects the paged form
	dir    []uint32    // per page of IDs: 0, or page<<liveCountBits | live IDs in it
	pages  []*livePage // directory words name pages[i] as i+1
	spare  []uint32    // emptied pages, as directory words name them
	paged  int         // live IDs in pages
	hashed mm.Table    // IDs outside [0, liveCap) or past the page budget
}

const (
	liveShift     = 10
	livePageLen   = 1 << liveShift
	liveCountBits = liveShift + 1 // counts 0..livePageLen
	liveCountMask = 1<<liveCountBits - 1
	liveCap       = 1 << 28

	liveFloorPages = 64
	liveIDsPerPage = 16
)

// livePage holds the addresses of livePageLen consecutive IDs.
type livePage [livePageLen]heap.Addr

// newLiveTable returns the dense form for events whose IDs index a slice
// of modest size, and the paged form otherwise.
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
	// paged form.
	if minID >= 0 && maxID < 2*int64(len(events))+64 {
		return liveTable{dense: make([]heap.Addr, maxID+1)}
	}
	return liveTable{}
}

func (lt *liveTable) set(id int64, p heap.Addr) {
	if lt.dense == nil {
		lt.setPaged(id, p)
		return
	}
	lt.dense[id] = p
}

// take returns the live address for id and forgets it; Nil means id is
// not live. The dense form needs no range check: the pre-scan sized it
// for every ID its events name.
func (lt *liveTable) take(id int64) (p heap.Addr) {
	if lt.dense == nil {
		return lt.takePaged(id)
	}
	p, lt.dense[id] = lt.dense[id], heap.Nil
	return p
}

// setPaged is set's paged form, kept out of line so that set itself fits
// the inliner's budget.
//
//go:noinline
func (lt *liveTable) setPaged(id int64, p heap.Addr) {
	if uint64(id) >= liveCap {
		lt.hashed.Put(uint64(id), int64(p))
		return
	}
	d := int(id >> liveShift)
	if d >= len(lt.dir) {
		size := min(max(d+1, 2*len(lt.dir)), liveCap>>liveShift)
		lt.dir = append(lt.dir, make([]uint32, size-len(lt.dir))...)
	}
	w := lt.dir[d]
	if w == 0 {
		if len(lt.pages)-len(lt.spare) >= liveFloorPages+lt.paged/liveIDsPerPage {
			lt.hashed.Put(uint64(id), int64(p))
			return
		}
		w = lt.newPage() << liveCountBits
	}
	if lt.hashed.Len() > 0 {
		lt.hashed.Take(uint64(id)) // set while its page was over budget
	}
	slot := &lt.pages[w>>liveCountBits-1][id&(livePageLen-1)]
	if *slot == heap.Nil {
		w++
		lt.paged++
	}
	*slot = p
	lt.dir[d] = w
}

// takePaged is take's paged form, kept out of line so that take itself
// fits the inliner's budget.
//
//go:noinline
func (lt *liveTable) takePaged(id int64) heap.Addr {
	d := int(id >> liveShift)
	if uint64(id) >= liveCap || d >= len(lt.dir) || lt.dir[d] == 0 {
		return lt.takeHashed(id)
	}
	w := lt.dir[d]
	slot := &lt.pages[w>>liveCountBits-1][id&(livePageLen-1)]
	p := *slot
	if p == heap.Nil {
		return lt.takeHashed(id)
	}
	*slot = heap.Nil
	lt.paged--
	if w--; w&liveCountMask == 0 {
		lt.spare = append(lt.spare, w>>liveCountBits)
		w = 0
	}
	lt.dir[d] = w
	return p
}

// takeHashed is take for an ID the pages do not hold.
func (lt *liveTable) takeHashed(id int64) heap.Addr {
	if lt.hashed.Len() == 0 {
		return heap.Nil
	}
	p, _ := lt.hashed.Take(uint64(id))
	return heap.Addr(p)
}

// newPage returns an empty page as directory words name it, reusing a
// spare one (emptied slot by slot, so already all Nil) before allocating
// one.
func (lt *liveTable) newPage() uint32 {
	if n := len(lt.spare); n > 0 {
		pg := lt.spare[n-1]
		lt.spare = lt.spare[:n-1]
		return pg
	}
	lt.pages = append(lt.pages, new(livePage))
	return uint32(len(lt.pages))
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
// from its first event, with the paged live table.
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
