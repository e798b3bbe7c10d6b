package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
	"time"
	"unsafe"

	"dmmkit/internal/heap"
	"dmmkit/internal/netsim"
	"dmmkit/internal/profile"
	"dmmkit/internal/registry"
	"dmmkit/internal/trace"
	"dmmkit/internal/workloads/drr"
)

// The stream experiment (dmmbench -exp stream) is the out-of-core replay
// measurement: it generates a netsim-scale DRR trace (~1M events in full
// mode — a multi-second wireless capture), writes it to disk in the
// streamable DMMT2 format, then replays the file through the streaming
// path (DecodeBinarySource + RunSource) and through the classic
// in-memory path, asserting that footprint, work and system stats are
// identical, and reporting how much Go heap the streaming replay needs —
// which is bounded by the application's live set, not the trace length.

// streamManagers are the manager families the experiment replays.
var streamManagers = []ManagerName{MgrKingsley, MgrLea, MgrCustom}

// StreamRow compares one manager family across the two replay paths.
type StreamRow struct {
	Manager   ManagerName
	Footprint int64 // identical across paths (asserted)
	Work      int64
	InMemNs   int64 // wall clock of the in-memory replay
	StreamNs  int64 // wall clock of the streaming (off-disk) replay
}

// StreamResult is the report of the out-of-core replay measurement.
type StreamResult struct {
	TraceName  string
	Events     int
	PeakLive   int64 // peak concurrently requested bytes
	EventBytes int64 // what the materialized event slice occupies
	FileBytes  int64 // the DMMT2 file on disk

	// Streaming-replay memory, measured around the first replayed
	// manager: AllocBytes is everything allocated during the replay
	// (decoder, live table, simulated heap), LiveBytes what remains
	// reachable after it — both independent of the trace length.
	AllocBytes uint64
	LiveBytes  int64

	Rows []StreamRow
}

// streamConfig is the DRR configuration of the measurement: full mode
// targets ~1M events (heavy traffic over twelve seconds of simulated
// time), quick mode the registry's reduced trace.
func streamConfig(quick bool) drr.Config {
	if quick {
		return drr.Config{Seed: 1, Net: netsim.Config{Phases: 4, PhaseMs: 250}}
	}
	return drr.Config{Seed: 1, Net: netsim.Config{RateMbps: 50, Phases: 6, PhaseMs: 1000}}
}

// RunStream generates the trace, replays it through both paths and
// verifies they agree; any disagreement is an error, so smoke runs fail
// loudly instead of printing wrong numbers.
func RunStream(ctx context.Context, cfg Config) (*StreamResult, error) {
	dcfg := streamConfig(cfg.Quick)
	built, err := drr.BuildTrace(dcfg)
	if err != nil {
		return nil, err
	}
	tr := built.Trace
	prof := profile.FromTrace(tr)
	res := &StreamResult{
		TraceName:  tr.Name,
		Events:     len(tr.Events),
		PeakLive:   tr.MaxLiveBytes(),
		EventBytes: int64(len(tr.Events)) * int64(sizeOfEvent),
	}

	// The trace on disk.
	f, err := os.CreateTemp("", "dmmkit-stream-*.trace")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	if err := tr.EncodeBinary2(f); err != nil {
		_ = f.Close() // encode error supersedes any close error
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	st, err := os.Stat(f.Name())
	if err != nil {
		return nil, err
	}
	res.FileBytes = st.Size()

	file, err := trace.OpenFile(f.Name())
	if err != nil {
		return nil, err
	}
	for i, name := range streamManagers {
		reg := registryName[name]

		h1 := heap.New(heap.Config{})
		m1, err := registry.NewManager(reg, h1, prof)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		inMem, err := trace.Run(ctx, m1, tr, trace.RunOpts{})
		if err != nil {
			return nil, err
		}
		inMemNs := time.Since(t0).Nanoseconds()

		h2 := heap.New(heap.Config{})
		m2, err := registry.NewManager(reg, h2, prof)
		if err != nil {
			return nil, err
		}
		src, err := file.Open()
		if err != nil {
			return nil, err
		}
		measure := i == 0 // memory numbers from the first manager's replay
		var before runtime.MemStats
		if measure {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		t0 = time.Now()
		streamed, err := trace.RunSource(ctx, m2, src, trace.RunOpts{})
		if err != nil {
			return nil, err
		}
		streamNs := time.Since(t0).Nanoseconds()
		if measure {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			res.AllocBytes = after.TotalAlloc - before.TotalAlloc
			runtime.GC()
			runtime.ReadMemStats(&after)
			res.LiveBytes = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		}

		if inMem.MaxFootprint != streamed.MaxFootprint || inMem.Work != streamed.Work ||
			inMem.Stats != streamed.Stats || inMem.Events != streamed.Events ||
			h1.SysStats() != h2.SysStats() {
			return nil, fmt.Errorf("stream: %s: streaming replay diverged from in-memory: footprint %d vs %d, work %d vs %d",
				name, inMem.MaxFootprint, streamed.MaxFootprint, inMem.Work, streamed.Work)
		}
		res.Rows = append(res.Rows, StreamRow{
			Manager:   name,
			Footprint: inMem.MaxFootprint,
			Work:      int64(inMem.Work),
			InMemNs:   inMemNs,
			StreamNs:  streamNs,
		})
	}
	return res, nil
}

// sizeOfEvent is what one materialized event occupies, for the
// event-slice size line of the report.
const sizeOfEvent = unsafe.Sizeof(trace.Event{})

// WriteStream renders the measurement.
func WriteStream(w io.Writer, r *StreamResult) error {
	fmt.Fprintf(w, "out-of-core replay of %q: %d events, peak live %s\n",
		r.TraceName, r.Events, byteCount(r.PeakLive))
	fmt.Fprintf(w, "sizes: events in memory %s, DMMT2 file %s\n",
		byteCount(r.EventBytes), byteCount(r.FileBytes))
	fmt.Fprintf(w, "streaming replay heap: %s allocated, %s retained (vs %s to materialize)\n\n",
		byteCount(int64(r.AllocBytes)), byteCount(r.LiveBytes), byteCount(r.EventBytes))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "manager\tfootprint (B)\twork\tin-memory\tstreamed")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\n", row.Manager, row.Footprint, row.Work,
			time.Duration(row.InMemNs), time.Duration(row.StreamNs))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nfootprint, work and system stats identical across both paths.")
	return nil
}

// byteCount renders a byte size with a binary unit.
func byteCount(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
