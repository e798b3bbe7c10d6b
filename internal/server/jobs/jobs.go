// Package jobs is dmmserve's job manager: a bounded pool of workers
// running explore/profile jobs asynchronously against the exploration
// engine, with per-job UUIDs, an append-only event log streamed to any
// number of subscribers, TTL'd retention of finished results, and a
// graceful shutdown that drains running searches through the existing
// checkpoint path so a SIGTERM loses no completed work.
//
// Determinism contract: a job built from the same trace, seed, strategy
// and parallelism as a direct Engine.Explore run produces the
// byte-identical candidate stream, best vector and Pareto front — the
// manager only wires the engine's in-order callbacks into the event
// log, it never reorders or resamples. The integration tests pin this.
package jobs

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmmkit/internal/cliopts"
	"dmmkit/internal/server/metrics"
)

// State is a job's lifecycle position.
type State string

// The job states, in lifecycle order. Terminal states are done, failed
// and cancelled; a drained job (checkpointed during shutdown) reports
// cancelled with a non-empty Checkpoint path.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Manager errors surfaced to the API layer.
var (
	// ErrQueueFull rejects a submit when the queue is at capacity; the
	// HTTP layer maps it to 429.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects a submit during graceful shutdown (503).
	ErrDraining = errors.New("jobs: server draining")
	// errDrained aborts a running exploration after its state was
	// checkpointed during shutdown. Internal: jobs report cancelled.
	errDrained = errors.New("jobs: drained to checkpoint")
)

// Config parameterizes a Manager.
type Config struct {
	// Workers is the number of jobs running concurrently (default 2).
	// Each job additionally parallelizes candidate evaluation per its
	// own request, so total CPU use is Workers × job parallelism.
	Workers int
	// QueueDepth caps the queued (not yet running) jobs (default 64);
	// Submit returns ErrQueueFull beyond it.
	QueueDepth int
	// TTL is how long terminal jobs (and their results) are retained
	// before Sweep or a lazy Get evicts them. 0 selects the 15-minute
	// default; negative retains forever.
	TTL time.Duration
	// SpoolDir receives drain checkpoints on shutdown (default: the
	// process's working directory).
	SpoolDir string
	// Now is the clock (default time.Now); injectable for tests.
	Now func() time.Time
}

// Manager owns the job table, the FIFO queue and the worker pool.
// Lock order: m.mu may be held while taking a job's j.mu, never the
// reverse — which is why the event counter is atomic (appends happen
// under j.mu) and noteFinished is only called with both locks free.
type Manager struct {
	cfg      Config
	baseCtx  context.Context
	baseStop context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*job
	queue     []*job
	draining  bool
	stopped   bool
	submitted int64
	running   int
	done      int64
	failed    int64
	cancelled int64

	events  atomic.Int64 // total events appended across all jobs
	latency *metrics.Tracker
	wg      sync.WaitGroup
}

// New builds a manager and starts its workers.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.TTL == 0 {
		cfg.TTL = 15 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		baseCtx:  ctx,
		baseStop: stop,
		jobs:     make(map[string]*job),
		latency:  metrics.New(5*time.Minute, 10, cfg.Now),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// NewID returns a random RFC 4122 version-4 UUID. Job and upload
// identity is the one place the server wants collision-proof randomness
// rather than determinism; results stay deterministic regardless of the
// ID. Exported for the API layer, which names uploaded traces the same
// way.
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken beyond a job
		// ID's concern.
		panic(fmt.Sprintf("jobs: reading random id: %v", err))
	}
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

// Submit validates a request, assigns it an ID and enqueues it.
func (m *Manager) Submit(req Request) (string, error) {
	if err := req.validate(); err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining || m.stopped {
		return "", ErrDraining
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		return "", ErrQueueFull
	}
	j := &job{
		id:      NewID(),
		req:     req,
		state:   StateQueued,
		created: m.cfg.Now(),
		notify:  make(chan struct{}),
		mgr:     m,
	}
	j.append(Event{Type: "state", State: StateQueued})
	m.jobs[j.id] = j
	m.queue = append(m.queue, j)
	m.submitted++
	m.cond.Signal()
	return j.id, nil
}

// Get returns a snapshot of the job, lazily evicting it when its TTL
// has expired (ok false, exactly as if Sweep had run).
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	if m.expiredLocked(j) {
		delete(m.jobs, id)
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// List returns snapshots of every retained job, newest first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		if m.expiredLocked(j) {
			continue
		}
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.After(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel requests cancellation: a queued job is cancelled immediately,
// a running one through its context (the engine returns the contiguous
// streamed prefix). Cancelling a terminal job is a no-op; ok is false
// only for unknown IDs.
func (m *Manager) Cancel(id string) (Snapshot, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || m.expiredLocked(j) {
		delete(m.jobs, id)
		m.mu.Unlock()
		return Snapshot{}, false
	}
	m.mu.Unlock()

	j.mu.Lock()
	wasQueued := false
	switch j.state {
	case StateQueued:
		j.finishLocked(StateCancelled, nil, "cancelled before start", "", m.cfg.Now())
		wasQueued = true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	snap := j.snapshotLocked()
	j.mu.Unlock()
	if wasQueued {
		m.noteFinished(StateCancelled, 0)
	}
	return snap, true
}

// Events subscribes to the job's event log from the beginning.
func (m *Manager) Events(id string) (*Stream, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || m.expiredLocked(j) {
		delete(m.jobs, id)
		return nil, false
	}
	return &Stream{j: j}, true
}

// Sweep evicts terminal jobs whose TTL has expired, returning how many.
func (m *Manager) Sweep() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for id, j := range m.jobs {
		if m.expiredLocked(j) {
			delete(m.jobs, id)
			n++
		}
	}
	return n
}

// expiredLocked reports whether j's retention has lapsed. Caller holds
// m.mu (j.mu is taken briefly; lock order is always m.mu before j.mu).
func (m *Manager) expiredLocked(j *job) bool {
	if m.cfg.TTL < 0 {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && m.cfg.Now().After(j.finished.Add(m.cfg.TTL))
}

// Draining reports whether a graceful shutdown is in progress.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Metrics summarizes the manager for the /v1/metrics endpoint.
func (m *Manager) Metrics() MetricsSnapshot {
	lat := m.latency.Snapshot()
	m.mu.Lock()
	defer m.mu.Unlock()
	return MetricsSnapshot{
		Submitted:      m.submitted,
		Queued:         len(m.queue),
		Running:        m.running,
		Done:           m.done,
		Failed:         m.failed,
		Cancelled:      m.cancelled,
		Retained:       len(m.jobs),
		WindowCount:    lat.Count,
		WindowAvgMS:    float64(lat.Avg) / float64(time.Millisecond),
		WindowMaxMS:    float64(lat.Max) / float64(time.Millisecond),
		WindowSeconds:  lat.Window.Seconds(),
		WorkerCount:    m.cfg.Workers,
		QueueDepthMax:  m.cfg.QueueDepth,
		Draining:       m.draining,
		RetentionSecs:  m.cfg.TTL.Seconds(),
		EventsAppended: m.events.Load(),
	}
}

// Shutdown drains the manager: new submits are refused, queued jobs are
// cancelled, and running jobs checkpoint their search state to the
// spool directory at the next generation boundary and stop. When ctx
// expires first, running jobs are hard-cancelled through their contexts
// (the engine stops within one evaluation batch) and ctx's error is
// returned; a nil return means every job drained cleanly.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.stopped = true
	queued := m.queue
	m.queue = nil
	m.cond.Broadcast()
	m.mu.Unlock()

	now := m.cfg.Now()
	for _, j := range queued {
		j.mu.Lock()
		wasQueued := j.state == StateQueued
		if wasQueued {
			j.finishLocked(StateCancelled, nil, "server shutting down", "", now)
		}
		j.mu.Unlock()
		if wasQueued {
			m.noteFinished(StateCancelled, 0)
		}
	}

	workersDone := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		m.baseStop()
		return nil
	case <-ctx.Done():
		m.baseStop() // hard-cancel whatever is still running
		<-workersDone
		return ctx.Err()
	}
}

// noteFinished updates the aggregate counters for one finished job.
// dur 0 (a job cancelled before it started) is not folded into the
// latency window.
func (m *Manager) noteFinished(s State, dur time.Duration) {
	m.mu.Lock()
	switch s {
	case StateDone:
		m.done++
	case StateFailed:
		m.failed++
	case StateCancelled:
		m.cancelled++
	}
	m.mu.Unlock()
	if dur > 0 {
		m.latency.Record(dur)
	}
}

// worker pulls queued jobs until shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.run(j)
	}
}

// next blocks for the next queued job; nil means the manager stopped.
func (m *Manager) next() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.draining || m.stopped {
			return nil
		}
		if len(m.queue) > 0 {
			j := m.queue[0]
			m.queue = m.queue[1:]
			return j
		}
		m.cond.Wait()
	}
}

// job is the manager's mutable record of one submission. Lock order:
// m.mu before j.mu when both are needed.
type job struct {
	id  string
	req Request
	mgr *Manager

	mu         sync.Mutex
	state      State
	created    time.Time
	started    time.Time
	finished   time.Time
	done       int
	total      int
	events     []Event
	notify     chan struct{} // replaced on every append; closed to wake readers
	result     *Result
	errMsg     string
	checkpoint string
	cancel     context.CancelFunc
}

// append adds one event to the log and wakes subscribers.
func (j *job) append(e Event) {
	j.mu.Lock()
	j.appendLocked(e)
	j.mu.Unlock()
}

func (j *job) appendLocked(e Event) {
	e.Seq = len(j.events)
	j.events = append(j.events, e)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mgr.events.Add(1)
}

// start flips the job to running; false when it was cancelled while
// queued (the worker skips it).
func (j *job) start(now time.Time, cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	j.appendLocked(Event{Type: "state", State: StateRunning})
	return true
}

// progress records counts and appends a progress event.
func (j *job) progress(done, total int) {
	j.mu.Lock()
	j.done, j.total = done, total
	j.appendLocked(Event{Type: "progress", Done: done, Total: total})
	j.mu.Unlock()
}

// finishLocked records the terminal state and the final event in one
// critical section, so a subscriber that sees the terminal state has
// the complete log.
func (j *job) finishLocked(s State, res *Result, errMsg, checkpoint string, now time.Time) {
	j.state = s
	j.finished = now
	j.result = res
	j.errMsg = errMsg
	j.checkpoint = checkpoint
	j.appendLocked(Event{Type: "state", State: s, Error: errMsg, Checkpoint: checkpoint})
}

func (j *job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *job) snapshotLocked() Snapshot {
	s := Snapshot{
		ID:         j.id,
		Kind:       j.req.Kind,
		State:      j.state,
		Trace:      j.req.Trace.displayName(),
		Created:    j.created,
		Done:       j.done,
		Total:      j.total,
		Error:      j.errMsg,
		Checkpoint: j.checkpoint,
		Result:     j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// Stream iterates a job's event log from the beginning, blocking for
// new events until the job is terminal and the log is drained.
type Stream struct {
	j *job
	i int
}

// Next returns the next event. ok is false when the job is terminal and
// every event has been delivered; a ctx cancellation (the HTTP client
// disconnecting) returns ctx's error.
func (s *Stream) Next(ctx context.Context) (Event, bool, error) {
	for {
		s.j.mu.Lock()
		if s.i < len(s.j.events) {
			e := s.j.events[s.i]
			s.i++
			s.j.mu.Unlock()
			return e, true, nil
		}
		if s.j.state.Terminal() {
			s.j.mu.Unlock()
			return Event{}, false, nil
		}
		ch := s.j.notify
		s.j.mu.Unlock()
		select {
		case <-ctx.Done():
			return Event{}, false, ctx.Err()
		case <-ch:
		}
	}
}

// validate fast-fails a request through the same vocabulary checks the
// dmmexplore flags apply (see internal/cliopts), so the server rejects
// a typo with the identical message — and before any trace is touched.
func (r *Request) validate() error {
	switch r.Kind {
	case KindExplore:
		if _, _, err := cliopts.ResolveMode(r.Strategy, r.Objectives); err != nil {
			return err
		}
	case KindProfile:
		// No search options to check.
	default:
		return fmt.Errorf("unknown job kind %q (valid: %s, %s)", r.Kind, KindExplore, KindProfile)
	}
	if (r.Trace.Path == "") == (r.Trace.Workload == "") {
		return errors.New("request must name exactly one trace input: a trace path or a registered workload")
	}
	if r.Budget < 0 || r.Population < 0 || r.Generations < 0 || r.Parallelism < 0 {
		return errors.New("budget, population, generations and parallelism must be non-negative")
	}
	return nil
}
