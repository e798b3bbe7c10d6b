package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"dmmkit/internal/experiments"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/profile"
	"dmmkit/internal/trace"
)

// layerReps is how many times the layer suite repeats each measurement;
// it reports the median.
const layerReps = 3

// nullManager hands out distinct addresses and does nothing else, so a
// replay against it costs exactly the replay loop and its live table.
type nullManager struct{ next heap.Addr }

func (m *nullManager) Alloc(mm.Request) (heap.Addr, error) {
	m.next++
	return m.next, nil
}

func (m *nullManager) Free(heap.Addr) error { return nil }
func (m *nullManager) Footprint() int64     { return 0 }
func (m *nullManager) MaxFootprint() int64  { return 0 }
func (m *nullManager) Stats() mm.Stats      { return mm.Stats{} }
func (m *nullManager) Name() string         { return "null" }

// layerKey names a Table 1 manager's layer metrics: the baselines live
// in alloc/*, our DM manager in core.
var layerKey = map[experiments.ManagerName]string{
	experiments.MgrKingsley: "alloc.kingsley",
	experiments.MgrLea:      "alloc.lea",
	experiments.MgrRegions:  "alloc.regions",
	experiments.MgrObstacks: "alloc.obstacks",
	experiments.MgrCustom:   "core.custom",
}

// layerSuite times each layer on its own over the workload's DMMT2 inputs
// and adds the per-layer metrics to rp. Costs are per event over all
// inputs together; a cost "net of" another subtracts that one's median,
// which isolates a layer that cannot be called alone.
func layerSuite(ctx context.Context, paths []string, rp *report) error {
	var files []*trace.File
	var traces []*trace.Trace
	var profs []*profile.Profile
	events := 0
	for _, p := range paths {
		f, err := trace.OpenFile(p)
		if err != nil {
			return err
		}
		tr, err := loadTrace(p)
		if err != nil {
			return err
		}
		files, traces = append(files, f), append(traces, tr)
		profs = append(profs, profile.FromTrace(tr))
		events += len(tr.Events)
	}
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(events) }

	// timeAll runs fn over every input, layerReps times, and returns the
	// median per-event cost of one pass over all of them.
	timeAll := func(fn func(i int) (time.Duration, error)) (float64, error) {
		var reps []float64
		for r := 0; r < layerReps; r++ {
			var total time.Duration
			for i := range traces {
				d, err := fn(i)
				if err != nil {
					return 0, err
				}
				total += d
			}
			reps = append(reps, perEvent(total))
		}
		return median(reps), nil
	}
	open := func(i int) (trace.BatchSource, error) {
		src, err := files[i].Open()
		if err != nil {
			return nil, err
		}
		bs, ok := src.(trace.BatchSource)
		if !ok {
			_ = trace.Close(src) // unusable: the error below is what matters
			return nil, fmt.Errorf("%s: not a batch source", files[i].Name())
		}
		return bs, nil
	}

	decode, err := timeAll(func(i int) (time.Duration, error) {
		src, err := open(i)
		if err != nil {
			return 0, err
		}
		buf := make([]trace.Event, trace.BatchLen)
		t0 := time.Now()
		for {
			n, err := src.NextBatch(buf)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				break
			}
		}
		d := time.Since(t0)
		return d, trace.Close(src)
	})
	if err != nil {
		return err
	}
	validate, err := timeAll(func(i int) (time.Duration, error) {
		src, err := open(i)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for {
			_, ok, err := src.Next()
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
		}
		d := time.Since(t0)
		return d, trace.Close(src)
	})
	if err != nil {
		return err
	}
	kernel, err := timeAll(func(i int) (time.Duration, error) {
		t0 := time.Now()
		_, err := trace.Run(ctx, &nullManager{}, traces[i], trace.RunOpts{})
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	var streamAlloc []float64
	streamed, err := timeAll(func(i int) (time.Duration, error) {
		src, err := open(i)
		if err != nil {
			return 0, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		_, err = trace.RunSource(ctx, &nullManager{}, src, trace.RunOpts{})
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		streamAlloc = append(streamAlloc, float64(after.TotalAlloc-before.TotalAlloc)/1024)
		return d, err
	})
	if err != nil {
		return err
	}
	prof, err := timeAll(func(i int) (time.Duration, error) {
		src, err := open(i)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = profile.FromSource(src)
		d := time.Since(t0)
		if cerr := trace.Close(src); err == nil {
			err = cerr
		}
		return d, err
	})
	if err != nil {
		return err
	}

	n := len(traces) * layerReps
	rp.add("trace.decode_ns_per_event", decode, "ns", n, "draining File.Open with NextBatch")
	rp.add("trace.validate_ns_per_event", validate, "ns", n, "draining File.Open with per-event Next, as an upload is checked")
	rp.add("trace.kernel_mem_ns_per_event", kernel, "ns", n, "trace.Run, null manager, in memory")
	rp.add("trace.livetable_stream_ns_per_event", streamed-decode, "ns", n, "trace.RunSource, null manager, over the file, net of decode")
	rp.add("trace.stream_alloc_kb_per_replay", median(streamAlloc), "KiB", len(streamAlloc), "Go heap allocated by one streamed null replay")
	rp.add("profile.ns_per_event", prof, "ns", n, "profile.FromSource over the file, decode included")

	for _, name := range experiments.Managers {
		var allocs, construct []float64
		cost, err := timeAll(func(i int) (time.Duration, error) {
			t0 := time.Now()
			m, err := experiments.NewManager(name, profs[i])
			construct = append(construct, ms(time.Since(t0)))
			if err != nil {
				return 0, err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 = time.Now()
			_, err = trace.Run(ctx, m, traces[i], trace.RunOpts{})
			d := time.Since(t0)
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
			return d, err
		})
		if err != nil {
			return err
		}
		key := layerKey[name]
		rp.add(key+".ns_per_event", cost-kernel, "ns", n, "in-memory replay net of the null-manager kernel")
		rp.add(key+".go_allocs_per_replay", median(allocs), "count", len(allocs), "runtime.MemStats.Mallocs delta")
		if name == experiments.MgrCustom {
			rp.add(key+".construct_ms", median(construct), "ms", len(construct), "experiments.NewManager: DesignFor + BuildGlobal")
		}
	}
	rp.printf("layers over %d events in %s", events, strings.Join(paths, ", "))
	return nil
}
