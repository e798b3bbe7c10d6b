// Package api implements dmmserve's HTTP/JSON surface over the job
// manager: streaming DMMT2 trace uploads into an on-disk spool, job
// launch/inspect/cancel, NDJSON and SSE event streaming, and windowed
// metrics. The handlers are a thin projection — all policy (admission,
// retention, determinism, drain-on-shutdown) lives in
// internal/server/jobs, and all option validation in internal/cliopts,
// so the API rejects bad requests with exactly the messages the
// dmmexplore flags print.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dmmkit/internal/cliopts"
	"dmmkit/internal/registry"
	"dmmkit/internal/server/jobs"
	"dmmkit/internal/server/metrics"
	"dmmkit/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// Manager runs the jobs (required).
	Manager *jobs.Manager
	// SpoolDir receives uploaded traces (required; created if absent).
	// Give the job manager the same directory so drain checkpoints and
	// uploads live together.
	SpoolDir string
	// MaxUploadBytes caps one trace upload (default 1 GiB).
	MaxUploadBytes int64
	// Now is the clock for request latency metrics (default time.Now).
	Now func() time.Time
}

// Server is the HTTP API. Build with New, serve via Handler.
type Server struct {
	mgr       *jobs.Manager
	spool     string
	maxUpload int64
	now       func() time.Time
	httpLat   *metrics.Tracker
	mux       *http.ServeMux
}

// New builds the API server and its route table.
func New(cfg Config) (*Server, error) {
	if cfg.Manager == nil {
		return nil, errors.New("api: Config.Manager is required")
	}
	if cfg.SpoolDir == "" {
		return nil, errors.New("api: Config.SpoolDir is required")
	}
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("api: creating spool dir: %w", err)
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 1 << 30
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		mgr:       cfg.Manager,
		spool:     cfg.SpoolDir,
		maxUpload: cfg.MaxUploadBytes,
		now:       cfg.Now,
		httpLat:   metrics.New(time.Minute, 6, cfg.Now),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", s.uploadTrace)
	mux.HandleFunc("POST /v1/jobs", s.createJob)
	mux.HandleFunc("GET /v1/jobs", s.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.streamEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancelJob)
	mux.HandleFunc("GET /v1/metrics", s.metricsReport)
	mux.HandleFunc("GET /v1/registry", s.listRegistry)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler: the route table wrapped in
// the latency-recording middleware.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		s.mux.ServeHTTP(w, r)
		s.httpLat.Record(s.now().Sub(start))
	})
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Encoding a value we built cannot fail; a broken connection can,
	// and has no one left to report to.
	_ = enc.Encode(v)
}

// fail emits a JSON error body with the given status.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// uploadResponse answers POST /v1/traces.
type uploadResponse struct {
	// ID names the stored trace for later job requests.
	ID string `json:"id"`
	// Name is the trace's embedded name.
	Name string `json:"name"`
	// Events is the validated event count.
	Events int `json:"events"`
}

// uploadTrace streams a DMMT2 trace body into the spool. The
// upload is decoded end to end — framing, varints, the CRC-32C trailer —
// before it is given an ID; a failed or interrupted upload leaves no
// partial file behind.
func (s *Server) uploadTrace(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.maxUpload)
	tmp, err := os.CreateTemp(s.spool, ".upload-*")
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "spooling upload: %v", err)
		return
	}
	tmpName := tmp.Name()
	discard := func() {
		_ = tmp.Close() // error path: the partial file is removed next anyway
		_ = os.Remove(tmpName)
	}
	if _, err := io.Copy(tmp, body); err != nil {
		discard()
		// MaxBytesReader's error means the client sent too much; any
		// other read error is the client connection going away.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", s.maxUpload)
			return
		}
		s.fail(w, http.StatusBadRequest, "reading upload: %v", err)
		return
	}
	if err := tmp.Sync(); err != nil {
		discard()
		s.fail(w, http.StatusInternalServerError, "syncing upload: %v", err)
		return
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName) // error path: nothing more to do with the temp file
		s.fail(w, http.StatusInternalServerError, "closing upload: %v", err)
		return
	}

	name, events, err := validateTraceFile(r, tmpName)
	if err != nil {
		_ = os.Remove(tmpName) // invalid upload: remove the partial spool file
		s.fail(w, http.StatusBadRequest, "invalid trace: %v", err)
		return
	}

	id := jobs.NewID()
	final := filepath.Join(s.spool, id+".trace")
	if err := os.Rename(tmpName, final); err != nil {
		_ = os.Remove(tmpName) // error path: drop the orphaned temp file
		s.fail(w, http.StatusInternalServerError, "installing trace: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, uploadResponse{ID: id, Name: name, Events: events})
}

// validateTraceFile decodes the spooled file end to end under the
// request context, returning the trace name and event count. Any
// decode error — bad magic, torn varint, CRC mismatch, truncation —
// rejects the upload.
func validateTraceFile(r *http.Request, path string) (string, int, error) {
	f, err := trace.OpenFile(path)
	if err != nil {
		return "", 0, err
	}
	src, err := f.Open()
	if err != nil {
		return "", 0, err
	}
	src = trace.WithContext(r.Context(), src)
	events := 0
	for {
		_, ok, err := src.Next()
		if err != nil {
			_ = trace.Close(src) // error path: the decode error is what matters
			return "", 0, err
		}
		if !ok {
			break
		}
		events++
	}
	if err := trace.Close(src); err != nil {
		return "", 0, err
	}
	return src.Name(), events, nil
}

// validID reports whether id is one of our own generated identifiers
// (UUID alphabet only), refusing anything that could walk the
// filesystem when joined to the spool path.
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'f', c >= '0' && c <= '9', c == '-':
		default:
			return false
		}
	}
	return true
}

// jobRequest is the POST /v1/jobs body: the jobs.Request vocabulary
// with the trace named by upload ID instead of filesystem path, so
// clients can only reference traces they uploaded (or registered
// workloads), never arbitrary server files.
type jobRequest struct {
	Kind  string `json:"kind"`
	Trace struct {
		ID       string `json:"id,omitempty"`
		Workload string `json:"workload,omitempty"`
		Seed     int64  `json:"seed,omitempty"`
		Quick    bool   `json:"quick,omitempty"`
	} `json:"trace"`
	Strategy        string `json:"strategy,omitempty"`
	Objectives      string `json:"objectives,omitempty"`
	Seed            int64  `json:"search_seed,omitempty"`
	Population      int    `json:"population,omitempty"`
	Generations     int    `json:"generations,omitempty"`
	Budget          int    `json:"budget,omitempty"`
	Parallelism     int    `json:"parallelism,omitempty"`
	IncludeDesigned bool   `json:"include_designed,omitempty"`
	SkipFailures    bool   `json:"skip_failures,omitempty"`
}

// createJob validates and submits a job, mapping manager admission
// errors onto HTTP statuses (full queue 429, draining 503, bad request
// 400 with the CLI-identical message).
func (s *Server) createJob(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}

	jr := jobs.Request{
		Kind:            req.Kind,
		Strategy:        req.Strategy,
		Objectives:      req.Objectives,
		Seed:            req.Seed,
		Population:      req.Population,
		Generations:     req.Generations,
		Budget:          req.Budget,
		Parallelism:     req.Parallelism,
		IncludeDesigned: req.IncludeDesigned,
		SkipFailures:    req.SkipFailures,
	}
	switch {
	case req.Trace.ID != "" && req.Trace.Workload != "":
		s.fail(w, http.StatusBadRequest, "trace must name exactly one of id or workload")
		return
	case req.Trace.ID != "":
		if !validID(req.Trace.ID) {
			s.fail(w, http.StatusBadRequest, "malformed trace id %q", req.Trace.ID)
			return
		}
		path := filepath.Join(s.spool, req.Trace.ID+".trace")
		if _, err := os.Stat(path); err != nil {
			s.fail(w, http.StatusNotFound, "unknown trace %q (upload it first via POST /v1/traces)", req.Trace.ID)
			return
		}
		jr.Trace.Path = path
	default:
		jr.Trace.Workload = req.Trace.Workload
		jr.Trace.Seed = req.Trace.Seed
		jr.Trace.Quick = req.Trace.Quick
	}

	id, err := s.mgr.Submit(jr)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.fail(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, jobs.ErrDraining):
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		ID string `json:"id"`
	}{id})
}

// getJob answers GET /v1/jobs/{id}.
func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.mgr.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no job %q (finished jobs expire after their TTL)", id)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// listJobs answers GET /v1/jobs.
func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}{s.mgr.List()})
}

// cancelJob answers DELETE /v1/jobs/{id}: cancellation is asynchronous,
// the response is the job's snapshot at the moment the cancel landed.
// The events stream then delivers the remaining prefix and the terminal
// state.
func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.mgr.Cancel(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// streamEvents answers GET /v1/jobs/{id}/events: the job's full event
// log from sequence 0, then live events until the job is terminal. The
// default framing is NDJSON (one event per line); an Accept header
// naming text/event-stream switches to SSE data frames. The client
// disconnecting simply ends the stream — the job keeps running.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.mgr.Events(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no job %q", id)
		return
	}
	sse := false
	for _, accept := range r.Header.Values("Accept") {
		if accept == "text/event-stream" {
			sse = true
		}
	}
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	enc := json.NewEncoder(w)
	ctx := r.Context()
	for {
		e, ok, err := st.Next(ctx)
		if err != nil || !ok {
			return // client gone or job terminal: either way, done
		}
		if sse {
			if _, err := io.WriteString(w, "data: "); err != nil {
				return
			}
		}
		if err := enc.Encode(e); err != nil {
			return
		}
		if sse {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// metricsResponse answers GET /v1/metrics: the job manager's counters
// plus the HTTP request latency window (the jobs block carries its own
// job-latency window).
type metricsResponse struct {
	Jobs jobs.MetricsSnapshot `json:"jobs"`
	HTTP httpMetrics          `json:"http"`
}

type httpMetrics struct {
	WindowCount   int64   `json:"window_count"`
	WindowAvgMS   float64 `json:"window_avg_ms"`
	WindowMaxMS   float64 `json:"window_max_ms"`
	WindowSeconds float64 `json:"window_seconds"`
}

func (s *Server) metricsReport(w http.ResponseWriter, r *http.Request) {
	lat := s.httpLat.Snapshot()
	writeJSON(w, http.StatusOK, metricsResponse{
		Jobs: s.mgr.Metrics(),
		HTTP: httpMetrics{
			WindowCount:   lat.Count,
			WindowAvgMS:   float64(lat.Avg) / float64(time.Millisecond),
			WindowMaxMS:   float64(lat.Max) / float64(time.Millisecond),
			WindowSeconds: lat.Window.Seconds(),
		},
	})
}

// listRegistry answers GET /v1/registry: the same extension points the
// library exposes (registered workloads and manager families, valid
// strategies), so API clients discover the vocabulary instead of
// hard-coding it.
func (s *Server) listRegistry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Workloads  []string `json:"workloads"`
		Managers   []string `json:"managers"`
		Strategies []string `json:"strategies"`
	}{registry.Workloads(), registry.Managers(), cliopts.ValidStrategies})
}
