package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dmmkit/internal/experiments"
	"dmmkit/internal/profile"
	"dmmkit/internal/trace"
)

// goldenPath is the golden table, relative to the repository root: the
// outcome of every Table 1 cell at seed 1.
const goldenPath = "internal/experiments/testdata/golden_table1.json"

// table1 replays the three quick Table 1 traces against the five Table 1
// managers, in memory, one cell after another on one goroutine: a closed
// loop in which allocator-policy code does almost all the work.
type table1 struct {
	seed   int64
	root   string
	traces []*trace.Trace
	profs  []*profile.Profile
	paths  []string
	want   map[[2]string]experiments.GoldenCell // (workload, manager) → reference outcome
	source string                               // where want came from
}

func (t *table1) setup(ctx context.Context, dir string) (setupTimes, error) {
	var st setupTimes
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	t.traces, t.profs, t.paths = nil, nil, nil
	for _, w := range experiments.Workloads {
		t0 := time.Now()
		tr, err := experiments.BuildWorkloadTrace(w, t.seed, true)
		if err != nil {
			return st, err
		}
		st.tracegen += time.Since(t0)
		path := filepath.Join(dir, string(w)+".dmmt2")
		d, err := writeTrace(path, tr)
		if err != nil {
			return st, err
		}
		st.encode += d
		t.traces = append(t.traces, tr)
		t.profs = append(t.profs, profile.FromTrace(tr))
		t.paths = append(t.paths, path)
	}

	// The warm-up round is the reference at seeds the golden table does
	// not cover: every timed cell must reproduce it exactly.
	t.want = make(map[[2]string]experiments.GoldenCell)
	t.source = fmt.Sprintf("the warm-up round at seed %d", t.seed)
	for i := range t.traces {
		for _, name := range experiments.Managers {
			c, _, err := t.cell(ctx, i, name, nil, -1, 0)
			if err != nil {
				return st, err
			}
			t.want[[2]string{string(experiments.Workloads[i]), string(name)}] = c
		}
	}
	if t.seed == 1 {
		data, err := os.ReadFile(filepath.Join(t.root, goldenPath))
		if err != nil {
			return st, fmt.Errorf("seed 1 is checked against the golden table: %w", err)
		}
		var golden []experiments.GoldenCell
		if err := json.Unmarshal(data, &golden); err != nil {
			return st, err
		}
		for _, g := range golden {
			key := [2]string{g.Workload, g.Manager}
			g.Workload, g.Manager = "", ""
			t.want[key] = g
		}
		t.source = goldenPath
	}
	return st, nil
}

// cell builds one Table 1 manager and replays trace i against it,
// returning the replay's outcome and how long construction plus replay
// took. Computing the outcome (a checksum of the heap) is not timed.
func (t *table1) cell(ctx context.Context, i int, name experiments.ManagerName, rec *recorder, parent, op int) (experiments.GoldenCell, time.Duration, error) {
	t0 := time.Now()
	sp := rec.begin("experiments.NewManager/"+string(name), parent, op)
	m, err := experiments.NewManager(name, t.profs[i])
	rec.end(sp)
	if err != nil {
		return experiments.GoldenCell{}, 0, err
	}
	sp = rec.begin("trace.Run/"+string(name), parent, op)
	run, err := trace.Run(ctx, m, t.traces[i], trace.RunOpts{})
	rec.end(sp)
	d := time.Since(t0)
	if err != nil {
		return experiments.GoldenCell{}, d, err
	}
	return outcome(run, m), d, nil
}

func (t *table1) measure(ctx context.Context, window time.Duration, rec *recorder) (*result, error) {
	res := &result{op: "one round: the 15 cells, each manager construction + in-memory replay"}
	start := time.Now()
	for round := 0; more(round, start, window); round++ {
		r := traced(rec, round)
		root := r.begin("table1.round", -1, round)
		var events int
		var busy time.Duration
		failed := false
		for i, tr := range t.traces {
			for _, name := range experiments.Managers {
				c, d, err := t.cell(ctx, i, name, r, root, round)
				res.attempted++
				busy += d
				events += len(tr.Events)
				if err != nil || c != t.want[[2]string{string(experiments.Workloads[i]), string(name)}] {
					res.failed++
					failed = true
				}
			}
		}
		r.end(root)
		// Cells differ by more than tenfold in cost, so a percentile over
		// single cells would be the cost of whichever cell type it lands
		// on; a round is one homogeneous operation.
		if failed {
			res.sample(math.Inf(1), r != nil)
		} else {
			res.sample(ms(busy), r != nil)
		}
		res.rates = append(res.rates, float64(events)/busy.Seconds())
	}
	return res, nil
}

func (t *table1) check(_ context.Context, res *result) error {
	res.checks = append(res.checks, fmt.Sprintf("check table1: %d of %d cells equal %s (footprint, work, system calls, heap checksum)",
		res.attempted-res.failed, res.attempted, t.source))
	return nil
}

func (t *table1) files() []string { return t.paths }

func (t *table1) close() error { return nil }
