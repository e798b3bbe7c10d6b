package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"dmmkit/internal/core"
	"dmmkit/internal/experiments"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/netsim"
	"dmmkit/internal/registry"
	"dmmkit/internal/search"
	"dmmkit/internal/trace"
)

// sizes are the workloads' input sizes and rates. Inputs are cut to a
// fixed event count so that the seed changes what a trace holds but not
// how long it is: the slowest design candidates cost superlinearly in
// trace length, so a length that moved with the seed would move the
// throughput more than any code change does.
type sizes struct {
	streamNet    netsim.Config // traffic of the stream workload's DRR trace
	streamEvents int           // events of it that are replayed

	exploreTraces int             // explorations per round, each on its own trace
	exploreEvents int             // events of the full DRR trace each one replays
	exploreGA     search.GAConfig // per exploration

	serveTraces int             // distinct session traces; session i uploads trace i mod serveTraces
	serveEvents int             // events of the full DRR trace per session trace
	serveGA     search.GAConfig // the job each session submits
	serveRate   float64         // session arrivals per second
}

// fullSizes is the benchmark.
var fullSizes = sizes{
	streamNet:    netsim.Config{RateMbps: 50, Phases: 6, PhaseMs: 1000},
	streamEvents: 600_000,

	exploreTraces: 8,
	exploreEvents: 20_000,
	exploreGA:     search.GAConfig{Population: 12, Generations: 4, MaxEvaluations: 48},

	serveTraces: 8,
	serveEvents: 10_000,
	serveGA:     search.GAConfig{Population: 4, Generations: 2, MaxEvaluations: 8},
	// A third of the closed-loop capacity: nproc clients sending these
	// sessions back to back completed 21.1 sessions/s on 2 vCPUs (README).
	// Queueing theory then has about one session in six waiting for a
	// slot, so waiting shows in the p90 but not the median. At half the
	// capacity, a host running a third slower pushed the load past two
	// thirds and the p90 varied several-fold from run to run.
	serveRate: 7,
}

// inputSeed derives the seed of input k of a run from the run's seed.
// Offsets keep the explore and serve traces of one run distinct.
func inputSeed(seed int64, offset, k int) int64 {
	return seed*1000 + int64(offset+k)
}

// drrPrefix generates the full DRR trace for seed and keeps its first n
// events. Any prefix of a trace is a valid trace: a free always follows
// its allocation.
func drrPrefix(seed int64, n int) (*trace.Trace, error) {
	tr, err := registry.BuildWorkload("drr", registry.WorkloadOpts{Seed: seed})
	if err != nil {
		return nil, err
	}
	return prefix(tr, n)
}

func prefix(tr *trace.Trace, n int) (*trace.Trace, error) {
	if len(tr.Events) < n {
		return nil, fmt.Errorf("trace %q has %d events, the workload needs %d", tr.Name, len(tr.Events), n)
	}
	tr.Events = tr.Events[:n:n]
	return tr, nil
}

// writeTrace encodes tr as DMMT2 into path and returns how long it took.
func writeTrace(path string, tr *trace.Trace) (time.Duration, error) {
	t0 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := tr.EncodeBinary2(f); err != nil {
		_ = f.Close() // the encode error is the one to report
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// encodeSink encodes the first limit events a generator streams into it
// as DMMT2 and drops the rest, so a long trace reaches disk without ever
// being held in memory. It hands events to the encoder a batch at a time
// and times only that, keeping encoding apart from generation.
type encodeSink struct {
	enc    *trace.Encoder
	limit  int
	n      int
	buf    []trace.Event
	encode time.Duration
}

func (s *encodeSink) Begin(name string) error {
	t0 := time.Now()
	defer func() { s.encode += time.Since(t0) }()
	return s.enc.Begin(name)
}

func (s *encodeSink) WriteEvent(e trace.Event) error {
	if s.n == s.limit {
		return nil
	}
	s.n++
	s.buf = append(s.buf, e)
	if len(s.buf) == trace.BatchLen {
		return s.flush()
	}
	return nil
}

func (s *encodeSink) flush() error {
	t0 := time.Now()
	defer func() { s.encode += time.Since(t0) }()
	for _, e := range s.buf {
		if err := s.enc.WriteEvent(e); err != nil {
			return err
		}
	}
	s.buf = s.buf[:0]
	return nil
}

// close encodes what is buffered and ends the stream.
func (s *encodeSink) close() error {
	if err := s.flush(); err != nil {
		return err
	}
	t0 := time.Now()
	defer func() { s.encode += time.Since(t0) }()
	return s.enc.Close()
}

// loadTrace decodes a DMMT2 file into memory.
func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read path: the decode's errors are the ones that matter
	return trace.DecodeBinary(f)
}

// outcome is the complete observable result of one replay: the fields
// of the golden table — footprints, work, system-call counts and a
// checksum of every heap byte. Two replays agree only if all of it does.
func outcome(run trace.Result, m mm.Manager) experiments.GoldenCell {
	c := experiments.GoldenCell{
		Events:       run.Events,
		MaxFootprint: run.MaxFootprint,
		MaxLive:      run.MaxLive,
		Final:        run.Final,
		Work:         int64(run.Work),
	}
	for _, h := range heapsOf(m) {
		s := h.SysStats()
		c.Sys.Sbrks += s.Sbrks
		c.Sys.Shrinks += s.Shrinks
		c.Sys.Maps += s.Maps
		c.Sys.Unmaps += s.Unmaps
		c.HeapChecksum = c.HeapChecksum*1099511628211 ^ h.Checksum()
	}
	return c
}

// heapsOf enumerates the simulated heaps a manager owns, in the order
// the golden table folds their checksums: one for an atomic manager, one
// per phase for the global manager.
func heapsOf(m mm.Manager) []*heap.Heap {
	if g, ok := m.(*core.Global); ok {
		var hs []*heap.Heap
		for _, ph := range g.Phases() {
			hs = append(hs, heapsOf(g.Atomic(ph))...)
		}
		return hs
	}
	if h, ok := m.(interface{ Heap() *heap.Heap }); ok {
		return []*heap.Heap{h.Heap()}
	}
	return nil
}

// more reports whether a closed loop starts another round: always for
// the first two, so that a traced run has rounds both with and without
// spans, and then until the window has passed.
func more(round int, start time.Time, window time.Duration) bool {
	return round < 2 || time.Since(start) < window
}

// traced returns rec for even operations and nil for odd ones, so a
// traced run measures the same operations with spans on and off.
func traced(rec *recorder, op int) *recorder {
	if op%2 == 0 {
		return rec
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
