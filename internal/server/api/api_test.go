package api_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dmmkit/internal/cliopts"
	"dmmkit/internal/core"
	"dmmkit/internal/dspace"
	"dmmkit/internal/server/api"
	"dmmkit/internal/server/jobs"
	"dmmkit/internal/trace"
)

// testEnv is one in-process dmmserve: manager, API, httptest listener.
type testEnv struct {
	ts    *httptest.Server
	mgr   *jobs.Manager
	spool string
}

func newEnv(t *testing.T, workers int) *testEnv {
	t.Helper()
	spool := t.TempDir()
	mgr := jobs.New(jobs.Config{Workers: workers, SpoolDir: spool})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx) // idempotent; tests that shut down explicitly already checked the error
	})
	srv, err := api.New(api.Config{Manager: mgr, SpoolDir: spool})
	if err != nil {
		t.Fatalf("api.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testEnv{ts: ts, mgr: mgr, spool: spool}
}

// traceBytes builds a small deterministic DMMT2 trace in memory — the
// payload every upload test posts.
func traceBytes(t testing.TB) []byte {
	t.Helper()
	b := trace.NewBuilder("httptrace")
	var live []int64
	for i := 0; i < 240; i++ {
		if i%3 == 2 && len(live) > 0 {
			b.Free(live[0])
			live = live[1:]
		} else {
			live = append(live, b.Alloc(int64(24+(i%5)*40), i%2))
		}
		b.Tick()
	}
	for _, id := range live {
		b.Free(id)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("building trace: %v", err)
	}
	var buf bytes.Buffer
	if err := b.Build().EncodeBinary2(&buf); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	return buf.Bytes()
}

// postJSON posts v as JSON and decodes the response body into out.
func (env *testEnv) postJSON(t *testing.T, path string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(env.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer func() { _ = resp.Body.Close() }() // test teardown: body fully read below
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading POST %s response: %v", path, err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

// upload posts raw trace bytes and returns the assigned trace ID.
func (env *testEnv) upload(t *testing.T, data []byte) string {
	t.Helper()
	resp, err := http.Post(env.ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("uploading trace: %v", err)
	}
	defer func() { _ = resp.Body.Close() }() // test teardown: body fully read below
	var up struct {
		ID     string `json:"id"`
		Name   string `json:"name"`
		Events int    `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatalf("decoding upload response: %v", err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	if up.ID == "" || up.Events == 0 {
		t.Fatalf("upload response %+v", up)
	}
	return up.ID
}

// streamEvents reads the job's NDJSON event stream to its end.
func (env *testEnv) streamEvents(t *testing.T, jobID string) []jobs.Event {
	t.Helper()
	resp, err := http.Get(env.ts.URL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer func() { _ = resp.Body.Close() }() // test teardown: stream read to EOF below
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type %q", ct)
	}
	var events []jobs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<22)
	for sc.Scan() {
		var e jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading event stream: %v", err)
	}
	return events
}

func (env *testEnv) getJob(t *testing.T, id string) (jobs.Snapshot, int) {
	t.Helper()
	resp, err := http.Get(env.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer func() { _ = resp.Body.Close() }() // test teardown: body fully read below
	var snap jobs.Snapshot
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("decoding job %q: %v", data, err)
		}
	}
	return snap, resp.StatusCode
}

// TestLifecycleOverHTTP drives the full tentpole sequence in-process:
// upload → launch → stream → result → metrics → graceful shutdown —
// and pins the headline determinism claim: the server's result for an
// uploaded trace is byte-identical to a direct Engine.ExploreSource run
// over the same bytes with the same parameters.
func TestLifecycleOverHTTP(t *testing.T) {
	env := newEnv(t, 2)
	data := traceBytes(t)
	traceID := env.upload(t, data)

	launch := map[string]any{
		"kind":             "explore",
		"trace":            map[string]any{"id": traceID},
		"strategy":         "ga",
		"objectives":       "footprint,work",
		"search_seed":      11,
		"population":       5,
		"generations":      3,
		"budget":           12,
		"parallelism":      4,
		"include_designed": true,
	}
	var created struct {
		ID string `json:"id"`
	}
	if code := env.postJSON(t, "/v1/jobs", launch, &created); code != http.StatusAccepted {
		t.Fatalf("launch status %d", code)
	}

	events := env.streamEvents(t, created.ID)
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if last := events[len(events)-1]; last.Type != "state" || last.State != jobs.StateDone {
		t.Fatalf("last event %+v, want done state", last)
	}

	snap, code := env.getJob(t, created.ID)
	if code != http.StatusOK || snap.State != jobs.StateDone || snap.Result == nil {
		t.Fatalf("job after stream: code=%d state=%s", code, snap.State)
	}

	// Reference: the same trace bytes explored directly, sequentially.
	ref, err := os.CreateTemp(t.TempDir(), "ref-*.trace")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	op, err := trace.OpenFile(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	objs, _, err := cliopts.ResolveMode("ga", "footprint,work")
	if err != nil {
		t.Fatal(err)
	}
	strat, err := cliopts.NewStrategy("ga", cliopts.SearchConfig{Seed: 11, Population: 5, Generations: 3, Budget: 12})
	if err != nil {
		t.Fatal(err)
	}
	cands, err := core.NewEngine(1).ExploreSource(context.Background(), op, core.ExploreOpts{
		Strategy: strat, MaxCandidates: 12, IncludeDesigned: true, Objectives: objs,
	})
	if err != nil {
		t.Fatalf("direct explore: %v", err)
	}
	wire := make([]jobs.Candidate, len(cands))
	for i, c := range cands {
		wire[i] = jobs.WireCandidate(c)
	}
	got, _ := json.Marshal(snap.Result.Candidates)
	want, _ := json.Marshal(wire)
	if !bytes.Equal(got, want) {
		t.Errorf("server result differs from direct engine:\nserver: %s\ndirect: %s", got, want)
	}
	var streamed []jobs.Candidate
	for _, e := range events {
		if e.Type == "candidate" {
			streamed = append(streamed, *e.Candidate)
		}
	}
	gotStream, _ := json.Marshal(streamed)
	if !bytes.Equal(gotStream, want) {
		t.Errorf("streamed candidates differ from direct engine:\nserver: %s\ndirect: %s", gotStream, want)
	}

	// Metrics reflect the work.
	resp, err := http.Get(env.ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var ms struct {
		Jobs jobs.MetricsSnapshot `json:"jobs"`
		HTTP struct {
			WindowCount int64 `json:"window_count"`
		} `json:"http"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	_ = resp.Body.Close() // test teardown: body fully decoded above
	if ms.Jobs.Done != 1 || ms.Jobs.Submitted != 1 || ms.HTTP.WindowCount == 0 {
		t.Errorf("metrics = %+v", ms)
	}

	// Registry discovery.
	resp, err = http.Get(env.ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Strategies []string `json:"strategies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatalf("decoding registry: %v", err)
	}
	_ = resp.Body.Close() // test teardown: body fully decoded above
	if strings.Join(reg.Strategies, ",") != strings.Join(cliopts.ValidStrategies, ",") {
		t.Errorf("registry strategies = %v", reg.Strategies)
	}

	// Graceful shutdown: draining refuses new jobs with 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.mgr.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := env.postJSON(t, "/v1/jobs", launch, nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", code)
	}
}

// TestUploadRejectsCorruptAndLeavesNoPartials pins the upload
// contract: bad magic, truncation and CRC damage answer 400, and the
// spool never accumulates partial files.
func TestUploadRejectsCorruptAndLeavesNoPartials(t *testing.T) {
	env := newEnv(t, 1)
	valid := traceBytes(t)

	truncated := valid[:len(valid)-3]
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	for name, bad := range map[string][]byte{
		"empty":     {},
		"garbage":   []byte("not a trace at all"),
		"magic":     []byte("DMMT2\n"),
		"truncated": truncated,
		"crc":       flipped,
	} {
		resp, err := http.Post(env.ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(bad))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // test teardown: body fully read above
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s upload: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}

	ents, err := os.ReadDir(env.spool)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("spool not empty after rejected uploads: %s", e.Name())
	}

	// And a valid upload still lands.
	env.upload(t, valid)
}

// TestUploadRequiresChecksum: a trace whose CRC-32C trailer was cut
// off is rejected, and so is the same stream with one event changed —
// without the checksum that corruption is well-formed and would
// otherwise be stored. Neither leaves a file in the spool.
func TestUploadRequiresChecksum(t *testing.T) {
	env := newEnv(t, 1)
	valid := traceBytes(t)
	stripped := valid[:len(valid)-4]

	// Locate the second event's last byte, its tick delta, from the
	// decoder's resume point after it.
	src, err := trace.DecodeBinarySource(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := src.Next(); !ok || err != nil {
			t.Fatalf("decoding event %d: %v", i, err)
		}
	}
	tickDelta := src.(trace.Positioner).Pos().Off - 1
	corrupt := bytes.Clone(stripped)
	if corrupt[tickDelta] != 0x02 {
		t.Fatalf("byte %d = %#x, want the zigzag tick delta 0x02", tickDelta, corrupt[tickDelta])
	}
	corrupt[tickDelta] = 0x04

	for name, body := range map[string][]byte{"stripped": stripped, "corrupt": corrupt} {
		resp, err := http.Post(env.ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // test teardown: body fully read above
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s upload: status %d (%s), want 400", name, resp.StatusCode, msg)
		}
	}
	ents, err := os.ReadDir(env.spool)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("spool not empty after rejected uploads: %s", e.Name())
	}
}

// TestJobValidationOverHTTP pins the 4xx mapping and the CLI-identical
// messages at the HTTP boundary.
func TestJobValidationOverHTTP(t *testing.T) {
	env := newEnv(t, 1)
	traceID := env.upload(t, traceBytes(t))

	var apiErr struct {
		Error string `json:"error"`
	}
	code := env.postJSON(t, "/v1/jobs", map[string]any{
		"kind": "explore", "trace": map[string]any{"id": traceID}, "strategy": "genetic",
	}, &apiErr)
	_, _, wantErr := cliopts.ResolveMode("genetic", "")
	if code != http.StatusBadRequest || apiErr.Error != wantErr.Error() {
		t.Errorf("bad strategy: code=%d error=%q, want 400 %q", code, apiErr.Error, wantErr)
	}

	code = env.postJSON(t, "/v1/jobs", map[string]any{
		"kind": "explore", "trace": map[string]any{"id": "deadbeef-0000-4000-8000-feedfacecafe"}, "strategy": "ga",
	}, &apiErr)
	if code != http.StatusNotFound {
		t.Errorf("unknown trace: code=%d, want 404", code)
	}

	code = env.postJSON(t, "/v1/jobs", map[string]any{
		"kind": "explore", "trace": map[string]any{"id": "../../etc/passwd"}, "strategy": "ga",
	}, &apiErr)
	if code != http.StatusBadRequest {
		t.Errorf("traversal trace id: code=%d, want 400", code)
	}

	resp, err := http.Post(env.ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // test teardown: only the status matters
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: code=%d, want 400", resp.StatusCode)
	}

	if _, code := env.getJob(t, "missing"); code != http.StatusNotFound {
		t.Errorf("GET unknown job: code=%d, want 404", code)
	}
}

// TestDeleteMidRunReturnsPrefix cancels a running job over HTTP and
// expects the streamed prefix plus a cancelled terminal event.
func TestDeleteMidRunReturnsPrefix(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	restore := core.SetEvalHook(func(v dspace.Vector, designed bool) {
		once.Do(func() { close(started) })
		<-gate
	})
	defer restore()

	env := newEnv(t, 1)
	traceID := env.upload(t, traceBytes(t))
	var created struct {
		ID string `json:"id"`
	}
	code := env.postJSON(t, "/v1/jobs", map[string]any{
		"kind": "explore", "trace": map[string]any{"id": traceID},
		"strategy": "exhaustive", "budget": 8, "parallelism": 1,
	}, &created)
	if code != http.StatusAccepted {
		t.Fatalf("launch status %d", code)
	}
	<-started

	req, err := http.NewRequest(http.MethodDelete, env.ts.URL+"/v1/jobs/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	_ = resp.Body.Close() // test teardown: only the status matters
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	close(gate)

	events := env.streamEvents(t, created.ID)
	last := events[len(events)-1]
	if last.Type != "state" || last.State != jobs.StateCancelled {
		t.Fatalf("last event %+v, want cancelled", last)
	}
	snap, _ := env.getJob(t, created.ID)
	if snap.State != jobs.StateCancelled {
		t.Errorf("job state %s, want cancelled", snap.State)
	}
	if snap.Result != nil && len(snap.Result.Candidates) >= 8 {
		t.Errorf("cancelled job returned all %d candidates", len(snap.Result.Candidates))
	}
}

// TestEventsSSE checks the Accept-negotiated SSE framing.
func TestEventsSSE(t *testing.T) {
	env := newEnv(t, 1)
	traceID := env.upload(t, traceBytes(t))
	var created struct {
		ID string `json:"id"`
	}
	if code := env.postJSON(t, "/v1/jobs", map[string]any{
		"kind": "profile", "trace": map[string]any{"id": traceID},
	}, &created); code != http.StatusAccepted {
		t.Fatalf("launch status %d", code)
	}

	req, err := http.NewRequest(http.MethodGet, env.ts.URL+"/v1/jobs/"+created.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }() // test teardown: stream read to EOF below
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content-type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "data: ") {
			frames++
			var e jobs.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad SSE frame %q: %v", line, err)
			}
		}
	}
	if frames == 0 {
		t.Fatal("no SSE data frames")
	}
}

// TestConcurrentHTTPClients runs full upload→launch→stream cycles from
// parallel clients; meaningful under -race.
func TestConcurrentHTTPClients(t *testing.T) {
	const clients = 8
	env := newEnv(t, 4)
	data := traceBytes(t)

	var mu sync.Mutex
	ids := make(map[string]bool)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(env.ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
			if err != nil {
				t.Errorf("upload: %v", err)
				return
			}
			var up struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&up)
			_ = resp.Body.Close() // test teardown: body fully decoded above
			if err != nil || up.ID == "" {
				t.Errorf("upload response: %v (%+v)", err, up)
				return
			}
			body, _ := json.Marshal(map[string]any{
				"kind": "profile", "trace": map[string]any{"id": up.ID},
			})
			resp, err = http.Post(env.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			var created struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&created)
			_ = resp.Body.Close() // test teardown: body fully decoded above
			if err != nil || created.ID == "" {
				t.Errorf("launch response: %v", err)
				return
			}
			mu.Lock()
			if ids[created.ID] {
				t.Errorf("duplicate job id %s", created.ID)
			}
			ids[created.ID] = true
			mu.Unlock()

			streamResp, err := http.Get(env.ts.URL + "/v1/jobs/" + created.ID + "/events")
			if err != nil {
				t.Errorf("stream: %v", err)
				return
			}
			all, err := io.ReadAll(streamResp.Body)
			_ = streamResp.Body.Close() // test teardown: stream read to EOF above
			if err != nil {
				t.Errorf("reading stream: %v", err)
				return
			}
			if !bytes.Contains(all, []byte(`"done"`)) {
				t.Errorf("job %s stream has no done state: %s", created.ID, all)
			}
		}()
	}
	wg.Wait()
	if len(ids) != clients {
		t.Fatalf("%d distinct jobs, want %d", len(ids), clients)
	}
}

// TestUploadTooLarge pins the 413 mapping of the upload size cap.
func TestUploadTooLarge(t *testing.T) {
	spool := t.TempDir()
	mgr := jobs.New(jobs.Config{Workers: 1, SpoolDir: spool})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx) // test teardown
	})
	srv, err := api.New(api.Config{Manager: mgr, SpoolDir: spool, MaxUploadBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream",
		bytes.NewReader(bytes.Repeat([]byte("x"), 4096)))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // test teardown: only the status matters
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize upload: status %d, want 413", resp.StatusCode)
	}
	ents, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("spool not empty after oversize upload: %v", names)
	}
}
