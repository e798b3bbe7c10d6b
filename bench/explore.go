package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dmmkit/internal/core"
	"dmmkit/internal/dspace"
	"dmmkit/internal/search"
	"dmmkit/internal/server/jobs"
	"dmmkit/internal/trace"
)

// explore runs GA design-space explorations through core.Engine over
// DMMT2 files, with nproc evaluation workers: candidate evaluation in
// core, fanned out by pool, behind search's per-generation barrier. A
// round is one exploration of each of the run's traces; exploration k
// always uses GA seed k+1. The slowest few candidates take most of an
// exploration's time, and which ones a GA proposes depends on its seed,
// so drawing GA seeds from the run seed would make throughput depend on
// the seed more than on the code. The run seed picks the traces.
type explore struct {
	seed   int64
	sz     sizes
	paths  []string
	opened []*trace.File
	events []int
	runs   []exploreRun
}

// exploreRun is one timed exploration, kept until the check.
type exploreRun struct {
	k      int
	cands  int
	digest uint64
}

func (x *explore) strategy(k int) search.Strategy {
	return search.NewGA(int64(k+1), x.sz.exploreGA)
}

func (x *explore) opts(k int) core.ExploreOpts {
	return core.ExploreOpts{Strategy: x.strategy(k), IncludeDesigned: true}
}

func (x *explore) setup(ctx context.Context, dir string) (setupTimes, error) {
	var st setupTimes
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	x.paths, x.opened, x.events, x.runs = nil, nil, nil, nil
	for k := 0; k < x.sz.exploreTraces; k++ {
		t0 := time.Now()
		tr, err := drrPrefix(inputSeed(x.seed, 0, k), x.sz.exploreEvents)
		if err != nil {
			return st, err
		}
		st.tracegen += time.Since(t0)
		path := filepath.Join(dir, fmt.Sprintf("explore-%d.dmmt2", k))
		d, err := writeTrace(path, tr)
		if err != nil {
			return st, err
		}
		st.encode += d
		f, err := trace.OpenFile(path)
		if err != nil {
			return st, err
		}
		x.paths = append(x.paths, path)
		x.opened = append(x.opened, f)
		x.events = append(x.events, len(tr.Events))
	}
	_, _, err := x.exploreOnce(ctx, 0, nil, 0)
	return st, err
}

// exploreOnce runs exploration k and returns its candidates and the
// timed passes the engine made over the trace.
func (x *explore) exploreOnce(ctx context.Context, k int, rec *recorder, op int) ([]core.Candidate, *timedOpener, error) {
	root := rec.begin("core.Engine.ExploreSource", -1, op)
	defer rec.end(root)
	opener := &timedOpener{f: x.opened[k]}
	opts := x.opts(k)
	if rec != nil {
		opts.Strategy = &timedStrategy{Strategy: opts.Strategy, rec: rec, parent: root, op: op}
	}
	cands, err := core.NewEngine(runtime.NumCPU()).ExploreSource(ctx, opener, opts)
	opener.record(rec, root, op)
	return cands, opener, err
}

func (x *explore) measure(ctx context.Context, window time.Duration, rec *recorder) (*result, error) {
	res := &result{op: "one candidate's replay, Open to Close, with nproc workers"}
	var evals, shares, utils []float64
	var searchMS float64
	var gens int
	start := time.Now()
	for round := 0; more(round, start, window); round++ {
		r := traced(rec, round)
		// The explorations of a round differ several-fold in cost, since a
		// few slow candidates decide each one's time, so the rate is taken
		// over the whole round.
		var events int
		var busy time.Duration
		for k := range x.opened {
			t0 := time.Now()
			cands, opener, err := x.exploreOnce(ctx, k, r, round)
			wall := time.Since(t0)
			if err != nil {
				return nil, err
			}
			events += len(cands) * x.events[k]
			busy += wall
			x.runs = append(x.runs, exploreRun{k: k, cands: len(cands), digest: digest(cands)})
			passes := opener.candidatePasses()
			for _, d := range passes {
				res.sample(ms(d), r != nil)
			}
			res.attempted += len(cands)
			for _, c := range cands {
				if c.Err != nil {
					res.failed++
					res.sample(math.Inf(1), r != nil)
				}
			}
			if r != nil {
				evals = append(evals, msAll(passes)...)
				shares = append(shares, top5Share(passes))
				utils = append(utils, sum(passes).Seconds()/(float64(runtime.NumCPU())*wall.Seconds()))
			}
		}
		res.rates = append(res.rates, float64(events)/busy.Seconds())
	}
	for _, s := range rec.all() {
		switch s.Name {
		case "search.Next":
			gens++
			fallthrough
		case "search.Observe":
			searchMS += float64(s.End-s.Start) / 1e6
		}
	}
	if rec != nil {
		// A GA's last Next returns the empty batch that ends the run, so
		// it is not a generation; every exploration has one.
		gens -= len(shares)
		res.notes = append(res.notes,
			fmt.Sprintf("layer core.eval_ms.p50 %.4g ms n=%d", median(evals), len(evals)),
			tailLine("layer core.eval_ms.p90", evals, "ms"),
			fmt.Sprintf("layer core.eval_ms.max %.4g ms n=%d", percentile(evals, 100), len(evals)),
			fmt.Sprintf("layer core.eval_top5_share %.4g ratio n=%d (median over explorations)", median(shares), len(shares)),
			fmt.Sprintf("layer search.ms_per_generation %.4g ms n=%d", searchMS/float64(max(1, gens)), gens),
			fmt.Sprintf("layer pool.utilization %.4g ratio n=%d (candidate replay time ÷ nproc × exploration wall time)", median(utils), len(utils)))
	}
	return res, nil
}

// check requires every repetition of an exploration to yield the same
// candidate digest, and that digest to equal an in-memory exploration
// of the decoded trace with a fresh strategy of the same seed.
func (x *explore) check(ctx context.Context, res *result) error {
	want := make([]uint64, len(x.paths))
	for k, path := range x.paths {
		tr, err := loadTrace(path)
		if err != nil {
			return err
		}
		cands, err := core.NewEngine(runtime.NumCPU()).Explore(ctx, tr, x.opts(k))
		if err != nil {
			return err
		}
		want[k] = digest(cands)
	}
	bad := 0
	for _, r := range x.runs {
		if r.digest != want[r.k] {
			bad++
			res.failed += r.cands
		}
	}
	res.checks = append(res.checks, fmt.Sprintf("check explore: %d of %d explorations match the in-memory exploration's candidate digest",
		len(x.runs)-bad, len(x.runs)))
	return nil
}

func (x *explore) files() []string { return x.paths }

func (x *explore) close() error { return nil }

// digest hashes the candidate stream in order: vector, footprint, work,
// the designed flag and any error, in their wire form.
func digest(cands []core.Candidate) uint64 {
	h := fnv.New64a()
	for _, c := range cands {
		data, _ := json.Marshal(jobs.WireCandidate(c)) // a struct of strings and ints always marshals
		h.Write(data)
	}
	return h.Sum64()
}

// timedOpener hands the engine its passes over a trace file and times
// each from Open to Close. The engine's first pass profiles the trace;
// every later pass is one candidate's replay.
type timedOpener struct {
	f      *trace.File
	mu     sync.Mutex
	passes [][2]time.Time
}

func (o *timedOpener) Open() (trace.Source, error) {
	src, err := o.f.Open()
	if err != nil {
		return nil, err
	}
	bs, ok := src.(trace.BatchSource)
	if !ok {
		_ = trace.Close(src) // unusable: the error below is what matters
		return nil, fmt.Errorf("%s: not a batch source", o.f.Name())
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.passes = append(o.passes, [2]time.Time{time.Now()})
	return &timedSource{BatchSource: bs, o: o, i: len(o.passes) - 1}, nil
}

func (o *timedOpener) done(i int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.passes[i][1].IsZero() {
		o.passes[i][1] = time.Now()
	}
}

// candidatePasses returns the duration of every candidate replay.
func (o *timedOpener) candidatePasses() []time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	var ds []time.Duration
	for _, p := range o.passes[min(1, len(o.passes)):] {
		ds = append(ds, p[1].Sub(p[0]))
	}
	return ds
}

// record turns the passes into spans under the exploration's span.
func (o *timedOpener) record(rec *recorder, parent, op int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, p := range o.passes {
		name := "core.eval"
		if i == 0 {
			name = "profile.FromSource"
		}
		rec.add(name, p[0], p[1], parent, op)
	}
}

// timedSource passes batches through and marks its pass done on Close,
// which both the replay and the profiling pass call when they finish.
type timedSource struct {
	trace.BatchSource
	o *timedOpener
	i int
}

func (s *timedSource) Close() error {
	err := trace.Close(s.BatchSource)
	s.o.done(s.i)
	return err
}

// timedStrategy records a span around each call into the search
// strategy: Next proposes a generation, Observe takes its results.
type timedStrategy struct {
	search.Strategy
	rec        *recorder
	parent, op int
}

func (s *timedStrategy) Next() []dspace.Vector {
	sp := s.rec.begin("search.Next", s.parent, s.op)
	defer s.rec.end(sp)
	return s.Strategy.Next()
}

func (s *timedStrategy) Observe(rs []search.Result) {
	sp := s.rec.begin("search.Observe", s.parent, s.op)
	defer s.rec.end(sp)
	s.Strategy.Observe(rs)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// top5Share is the share of all candidate replay time that the five
// slowest candidates take.
func top5Share(ds []time.Duration) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	return float64(sum(s[:min(5, len(s))])) / float64(sum(s))
}
