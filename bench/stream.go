package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dmmkit/internal/experiments"
	"dmmkit/internal/profile"
	"dmmkit/internal/trace"
	"dmmkit/internal/workloads/drr"
)

// stream replays one netsim-scale DRR trace out of core — decoded off a
// DMMT2 file batch by batch, with the live table sized by the live set —
// against each Table 1 manager in turn: a closed loop on one goroutine
// over the path table1 never takes.
type stream struct {
	seed   int64
	sz     sizes
	path   string
	file   *trace.File
	prof   *profile.Profile
	events int
	got    []streamReplay
}

// streamReplay is one timed replay, kept until the check.
type streamReplay struct {
	mgr experiments.ManagerName
	out experiments.GoldenCell
}

func (s *stream) setup(ctx context.Context, dir string) (setupTimes, error) {
	var st setupTimes
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	// The trace goes straight from the generator to disk, as dmmtrace
	// writes one: held in memory it would set the run's peak memory, which
	// should be the replays'.
	s.path = filepath.Join(dir, "stream.dmmt2")
	f, err := os.Create(s.path)
	if err != nil {
		return st, err
	}
	sink := &encodeSink{enc: trace.NewEncoder(f), limit: s.sz.streamEvents}
	t0 := time.Now()
	_, err = drr.StreamTrace(drr.Config{Seed: s.seed, Net: s.sz.streamNet}, sink)
	if err == nil {
		err = sink.close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, err
	}
	st.encode = sink.encode
	st.tracegen = time.Since(t0) - sink.encode
	if sink.n < s.sz.streamEvents {
		return st, fmt.Errorf("stream trace has %d events, the workload needs %d", sink.n, s.sz.streamEvents)
	}
	s.events = sink.n
	if s.file, err = trace.OpenFile(s.path); err != nil {
		return st, err
	}
	src, err := s.file.Open()
	if err != nil {
		return st, err
	}
	s.prof, err = profile.FromSource(src)
	if cerr := trace.Close(src); err == nil {
		err = cerr
	}
	if err != nil {
		return st, err
	}
	s.got = nil
	for _, name := range experiments.Managers {
		if _, _, err := s.replay(ctx, name, nil, -1, 0); err != nil {
			return st, err
		}
	}
	return st, nil
}

// replay streams the file through one fresh manager and returns the
// outcome and the time from Open to the end of the replay; building the
// manager is not timed.
func (s *stream) replay(ctx context.Context, name experiments.ManagerName, rec *recorder, parent, op int) (experiments.GoldenCell, time.Duration, error) {
	m, err := experiments.NewManager(name, s.prof)
	if err != nil {
		return experiments.GoldenCell{}, 0, err
	}
	t0 := time.Now()
	sp := rec.begin("trace.RunSource/"+string(name), parent, op)
	src, err := s.file.Open()
	if err != nil {
		return experiments.GoldenCell{}, 0, err
	}
	run, err := trace.RunSource(ctx, m, src, trace.RunOpts{})
	rec.end(sp)
	d := time.Since(t0)
	if err != nil {
		return experiments.GoldenCell{}, d, err
	}
	return outcome(run, m), d, nil
}

func (s *stream) measure(ctx context.Context, window time.Duration, rec *recorder) (*result, error) {
	res := &result{op: "one round: the file streamed through each of the five managers"}
	start := time.Now()
	for round := 0; more(round, start, window); round++ {
		r := traced(rec, round)
		root := r.begin("stream.round", -1, round)
		var busy time.Duration
		failed := false
		for _, name := range experiments.Managers {
			out, d, err := s.replay(ctx, name, r, root, round)
			res.attempted++
			busy += d
			if err != nil {
				res.failed++
				failed = true
				continue
			}
			s.got = append(s.got, streamReplay{name, out})
		}
		r.end(root)
		// The managers' replays differ several-fold in cost, so a
		// percentile over single replays would pick whichever manager's
		// group it lands in; a round is one homogeneous operation.
		if failed {
			res.sample(math.Inf(1), r != nil)
		} else {
			res.sample(ms(busy), r != nil)
		}
		res.rates = append(res.rates, float64(s.events*len(experiments.Managers))/busy.Seconds())
	}
	return res, nil
}

// check replays the decoded trace in memory against each manager — the
// classic path, sharing neither the decoder nor the sparse live table —
// and requires every streamed replay to match it exactly.
func (s *stream) check(ctx context.Context, res *result) error {
	tr, err := loadTrace(s.path)
	if err != nil {
		return err
	}
	want := make(map[experiments.ManagerName]experiments.GoldenCell)
	for _, name := range experiments.Managers {
		m, err := experiments.NewManager(name, s.prof)
		if err != nil {
			return err
		}
		run, err := trace.Run(ctx, m, tr, trace.RunOpts{})
		if err != nil {
			return err
		}
		want[name] = outcome(run, m)
	}
	bad := 0
	for _, g := range s.got {
		if g.out != want[g.mgr] {
			bad++
		}
	}
	res.failed += bad
	res.checks = append(res.checks, fmt.Sprintf("check stream: %d of %d streamed replays of %d events equal the in-memory replay",
		len(s.got)-bad, res.attempted, s.events))
	return nil
}

func (s *stream) files() []string { return []string{s.path} }

func (s *stream) close() error { return nil }
