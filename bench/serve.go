package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmmkit/internal/cliopts"
	"dmmkit/internal/core"
	"dmmkit/internal/server/api"
	"dmmkit/internal/server/jobs"
	"dmmkit/internal/trace"
)

// serve is an open loop against an in-process dmmserve on loopback:
// sessions arrive at seeded exponential intervals at a fixed rate,
// because dmmserve's users are independent of each other. A session
// uploads a trace, submits a small GA exploration of it, reads the job's
// event stream to the end and fetches the result. At most nproc
// sessions are in flight, over at most nproc connections; a session due
// while both are busy waits, and that wait counts in its latency, which
// runs from the time it was due. Session i uploads trace i mod
// serveTraces and searches with GA seed (i mod serveTraces)+1, for the
// reason explore gives.
type serve struct {
	seed     int64
	sz       sizes
	paths    []string
	bodies   [][]byte
	events   []int
	mgr      *jobs.Manager
	ts       *httptest.Server
	client   *http.Client
	sessions []session
}

// session is what one timed session saw.
type session struct {
	k          int
	due, start time.Time
	end        time.Time
	err        error
	upload     time.Duration
	snap       jobs.Snapshot
	events     int
	lastEvent  time.Time
}

// jobBody is the POST /v1/jobs request a session sends.
type jobBody struct {
	Kind  string `json:"kind"`
	Trace struct {
		ID string `json:"id"`
	} `json:"trace"`
	Strategy        string `json:"strategy"`
	Seed            int64  `json:"search_seed"`
	Population      int    `json:"population"`
	Generations     int    `json:"generations"`
	Budget          int    `json:"budget"`
	Parallelism     int    `json:"parallelism"`
	IncludeDesigned bool   `json:"include_designed"`
}

func (s *serve) setup(ctx context.Context, dir string) (setupTimes, error) {
	var st setupTimes
	if err := s.close(); err != nil {
		return st, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	s.paths, s.bodies, s.events = nil, nil, nil
	for k := 0; k < s.sz.serveTraces; k++ {
		t0 := time.Now()
		tr, err := drrPrefix(inputSeed(s.seed, 500, k), s.sz.serveEvents)
		if err != nil {
			return st, err
		}
		st.tracegen += time.Since(t0)
		path := filepath.Join(dir, fmt.Sprintf("serve-%d.dmmt2", k))
		d, err := writeTrace(path, tr)
		if err != nil {
			return st, err
		}
		st.encode += d
		body, err := os.ReadFile(path)
		if err != nil {
			return st, err
		}
		s.paths = append(s.paths, path)
		s.bodies = append(s.bodies, body)
		s.events = append(s.events, len(tr.Events))
	}

	spool := filepath.Join(dir, "spool")
	s.mgr = jobs.New(jobs.Config{Workers: runtime.NumCPU(), SpoolDir: spool})
	srv, err := api.New(api.Config{Manager: s.mgr, SpoolDir: spool})
	if err != nil {
		return st, err
	}
	s.ts = httptest.NewServer(srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
	}}
	if ss := s.session(ctx, 0, nil, 0); ss.err != nil {
		return st, ss.err
	}
	return st, nil
}

// session runs one session on trace k.
func (s *serve) session(ctx context.Context, k int, rec *recorder, op int) (ss session) {
	ss.k, ss.start = k, time.Now()
	defer func() { ss.end = time.Now() }()
	root := rec.begin("serve.session", -1, op)
	defer rec.end(root)

	sp := rec.begin("POST /v1/traces", root, op)
	var up struct {
		ID string `json:"id"`
	}
	ss.err = s.do(ctx, http.MethodPost, "/v1/traces", bytes.NewReader(s.bodies[k]), http.StatusCreated, &up)
	rec.end(sp)
	ss.upload = time.Since(ss.start)
	if ss.err != nil {
		return ss
	}

	job := jobBody{
		Kind: jobs.KindExplore, Strategy: "ga", Seed: int64(k + 1),
		Population: s.sz.serveGA.Population, Generations: s.sz.serveGA.Generations,
		Budget: s.sz.serveGA.MaxEvaluations, Parallelism: 1, IncludeDesigned: true,
	}
	job.Trace.ID = up.ID
	data, err := json.Marshal(job)
	if err != nil {
		ss.err = err
		return ss
	}
	sp = rec.begin("POST /v1/jobs", root, op)
	var created struct {
		ID string `json:"id"`
	}
	ss.err = s.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(data), http.StatusAccepted, &created)
	rec.end(sp)
	if ss.err != nil {
		return ss
	}

	sp = rec.begin("GET /v1/jobs/{id}/events", root, op)
	ss.events, ss.lastEvent, ss.err = s.drainEvents(ctx, created.ID)
	rec.end(sp)
	if ss.err != nil {
		return ss
	}

	sp = rec.begin("GET /v1/jobs/{id}", root, op)
	ss.err = s.do(ctx, http.MethodGet, "/v1/jobs/"+created.ID, nil, http.StatusOK, &ss.snap)
	rec.end(sp)
	if ss.err == nil && (ss.snap.State != jobs.StateDone || ss.snap.Result == nil) {
		ss.err = fmt.Errorf("job %s ended %s: %s", created.ID, ss.snap.State, ss.snap.Error)
	}
	if ss.err == nil && ss.snap.Started != nil && ss.snap.Finished != nil {
		rec.add("jobs.queued", ss.snap.Created, *ss.snap.Started, root, op)
		rec.add("jobs.run", *ss.snap.Started, *ss.snap.Finished, root, op)
	}
	return ss
}

// do sends one request and decodes the JSON answer into out, requiring
// the status want.
func (s *serve) do(ctx context.Context, method, path string, body io.Reader, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, body)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // read path: a failed read has already been reported
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10)) // best effort: the status is the error
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	// Reading to the end lets the connection carry the next request.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// drainEvents reads a job's NDJSON event stream until the server ends it
// at the job's terminal state, returning the event count and when the
// last one arrived.
func (s *serve) drainEvents(ctx context.Context, id string) (int, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, time.Time{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, time.Time{}, err
	}
	defer func() { _ = resp.Body.Close() }() // read path: a failed read has already been reported
	if resp.StatusCode != http.StatusOK {
		return 0, time.Time{}, fmt.Errorf("GET events of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	n, last := 0, time.Time{}
	for sc.Scan() {
		var e jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return n, last, fmt.Errorf("event %d of %s: %w", n, id, err)
		}
		if e.Seq != n {
			return n, last, fmt.Errorf("event %d of %s has seq %d", n, id, e.Seq)
		}
		n, last = n+1, time.Now()
	}
	return n, last, sc.Err()
}

func (s *serve) measure(ctx context.Context, window time.Duration, rec *recorder) (*result, error) {
	res := &result{op: "one session: upload, submit, stream the events, fetch the result; from its due time"}
	n := max(2, int(math.Ceil(s.sz.serveRate*window.Seconds())))
	// The gaps are the n quantiles of the exponential distribution, in an
	// order drawn from the seed: every run has the same gaps and so the
	// same mean rate, and the seed moves only which sessions cluster.
	// Independent draws would also vary how many short gaps a run gets,
	// and with them the p90 (README, Serve load).
	rng := rand.New(rand.NewSource(s.seed))
	due := make([]time.Duration, n)
	var at float64
	for i, j := range rng.Perm(n) {
		at += -math.Log(1-(float64(j)+0.5)/float64(n)) / s.sz.serveRate
		due[i] = time.Duration(at * float64(time.Second))
	}

	s.sessions = make([]session, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				t := time.NewTimer(time.Until(start.Add(due[i])))
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					s.sessions[i] = session{err: ctx.Err()}
					continue
				}
				ss := s.session(ctx, i%len(s.bodies), traced(rec, i), i)
				ss.due = start.Add(due[i])
				s.sessions[i] = ss
			}
		}()
	}
	wg.Wait()

	var late, upload, queued, running, tail, perJob []float64
	// An open loop's throughput is its arrival rate until it saturates;
	// what the server controls is how fast a job runs. Sessions cycle
	// through traces of different cost, so the rate is over all jobs.
	var events int
	var busy time.Duration
	for i, ss := range s.sessions {
		res.attempted++
		if ss.err != nil {
			res.failed++
			res.sample(math.Inf(1), traced(rec, i) != nil)
			continue
		}
		res.sample(ms(ss.end.Sub(ss.due)), traced(rec, i) != nil)
		late = append(late, ms(ss.start.Sub(ss.due)))
		if ss.snap.Started == nil || ss.snap.Finished == nil {
			continue
		}
		events += len(ss.snap.Result.Candidates) * s.events[ss.k]
		busy += ss.snap.Finished.Sub(*ss.snap.Started)
		if traced(rec, i) != nil {
			upload = append(upload, ms(ss.upload))
			queued = append(queued, ms(ss.snap.Started.Sub(ss.snap.Created)))
			running = append(running, ms(ss.snap.Finished.Sub(*ss.snap.Started)))
			tail = append(tail, ms(ss.lastEvent.Sub(*ss.snap.Finished)))
			perJob = append(perJob, float64(ss.events))
		}
	}
	if busy > 0 {
		res.rates = append(res.rates, float64(events)/busy.Seconds())
	}
	res.notes = append(res.notes,
		tailLine("valid bench.gen_late_ms.p90", late, "ms")+", how late sessions started against their schedule",
		fmt.Sprintf("valid bench.gen_late_ms.max %.4g ms n=%d", percentile(late, 100), len(late)))
	if rec != nil {
		res.notes = append(res.notes,
			fmt.Sprintf("layer server.upload_ms.p50 %.4g ms n=%d", median(upload), len(upload)),
			tailLine("layer server.upload_ms.p90", upload, "ms"),
			fmt.Sprintf("layer server.queue_wait_ms.p50 %.4g ms n=%d", median(queued), len(queued)),
			tailLine("layer server.queue_wait_ms.p90", queued, "ms"),
			fmt.Sprintf("layer server.job_run_ms.p50 %.4g ms n=%d", median(running), len(running)),
			tailLine("layer server.job_run_ms.p90", running, "ms"),
			fmt.Sprintf("layer server.events_per_job %.4g count n=%d (median)", median(perJob), len(perJob)),
			fmt.Sprintf("layer server.stream_tail_ms.p50 %.4g ms n=%d (last event received − job finished)", median(tail), len(tail)))
	}
	return res, nil
}

// check runs each distinct session request in process — the same trace
// file and search settings straight through core.Engine.ExploreSource —
// and requires every job's candidates to equal that run's.
func (s *serve) check(ctx context.Context, res *result) error {
	want := make(map[int][]jobs.Candidate)
	bad := 0
	for _, ss := range s.sessions {
		if ss.err != nil {
			continue
		}
		if _, ok := want[ss.k]; !ok {
			cands, err := s.reference(ctx, ss.k)
			if err != nil {
				return err
			}
			want[ss.k] = cands
		}
		if !reflect.DeepEqual(ss.snap.Result.Candidates, want[ss.k]) {
			bad++
		}
	}
	res.failed += bad
	res.checks = append(res.checks, fmt.Sprintf("check serve: %d of %d sessions finished with the candidates of the in-process exploration",
		res.attempted-res.failed, res.attempted))
	return nil
}

func (s *serve) reference(ctx context.Context, k int) ([]jobs.Candidate, error) {
	f, err := trace.OpenFile(s.paths[k])
	if err != nil {
		return nil, err
	}
	strat, err := cliopts.NewStrategy("ga", cliopts.SearchConfig{
		Seed: int64(k + 1), Population: s.sz.serveGA.Population,
		Generations: s.sz.serveGA.Generations, Budget: s.sz.serveGA.MaxEvaluations,
	})
	if err != nil {
		return nil, err
	}
	cands, err := core.NewEngine(1).ExploreSource(ctx, f, core.ExploreOpts{
		Strategy: strat, MaxCandidates: s.sz.serveGA.MaxEvaluations, IncludeDesigned: true, Parallelism: 1,
	})
	if err != nil {
		return nil, err
	}
	out := make([]jobs.Candidate, len(cands))
	for i, c := range cands {
		out[i] = jobs.WireCandidate(c)
	}
	return out, nil
}

func (s *serve) files() []string { return s.paths }

// close stops the server and its job manager, waiting for both.
func (s *serve) close() error {
	if s.ts == nil {
		return nil
	}
	s.ts.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.mgr.Shutdown(ctx)
	s.ts, s.mgr = nil, nil
	return err
}
