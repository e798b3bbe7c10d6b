package core

import (
	"context"
	"fmt"
	"strings"

	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/search"
	"dmmkit/internal/trace"
)

// Candidate is one evaluated point of the design space.
type Candidate struct {
	Vector       dspace.Vector
	Params       Params
	MaxFootprint int64
	Work         int64
	Designed     bool // produced by the methodology (not enumeration)
	Err          error
}

// Objective identifies one optimization axis of an exploration.
type Objective int

// The two measured objectives of a candidate evaluation.
const (
	// ObjectiveFootprint is the paper's primary metric: the maximum
	// number of bytes requested from the system during the replay.
	ObjectiveFootprint Objective = iota
	// ObjectiveWork is the architecture-neutral execution-time proxy
	// accumulated by the manager during the replay.
	ObjectiveWork
)

// String returns the objective's flag-syntax name.
func (o Objective) String() string {
	switch o {
	case ObjectiveFootprint:
		return "footprint"
	case ObjectiveWork:
		return "work"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// ParseObjectives parses a comma-separated objective list as accepted by
// the CLIs: "footprint" (the classic single-objective mode) or
// "footprint,work" in either order (multi-objective Pareto mode). An
// empty string selects the default, footprint only.
func ParseObjectives(s string) ([]Objective, error) {
	if s == "" {
		return nil, nil
	}
	var objs []Objective
	seen := map[Objective]bool{}
	for _, name := range strings.Split(s, ",") {
		var o Objective
		switch strings.TrimSpace(name) {
		case "footprint":
			o = ObjectiveFootprint
		case "work":
			o = ObjectiveWork
		default:
			return nil, fmt.Errorf("unknown objective %q (want footprint or work)", strings.TrimSpace(name))
		}
		if seen[o] {
			return nil, fmt.Errorf("objective %q listed twice", o)
		}
		seen[o] = true
		objs = append(objs, o)
	}
	return objs, nil
}

// multiObjective reports whether the objective list selects Pareto mode,
// validating it: nil or {footprint} is the classic scalar mode, any list
// containing both footprint and work is Pareto mode, and work alone is
// rejected (the scalar order already breaks footprint ties by work, so a
// work-only exploration would silently ignore the paper's metric).
func multiObjective(objs []Objective) (bool, error) {
	hasFootprint, hasWork := false, false
	for _, o := range objs {
		switch o {
		case ObjectiveFootprint:
			hasFootprint = true
		case ObjectiveWork:
			hasWork = true
		default:
			return false, fmt.Errorf("core: unknown objective %v", o)
		}
	}
	if hasWork && !hasFootprint {
		return false, fmt.Errorf("core: objectives %v optimize work without footprint; use footprint,work", objs)
	}
	return hasFootprint && hasWork, nil
}

// ErrorPolicy decides what a panicking candidate evaluation does to an
// exploration run. Build and replay errors are always per-candidate
// data (Candidate.Err); the policy governs panics — a pathological
// manager configuration tripping over its own invariants.
type ErrorPolicy int

const (
	// FailFast (the default) aborts the exploration at the first
	// panicking candidate: the run returns the contiguous prefix of
	// candidates already streamed together with a *pool.PanicError
	// carrying the recovered value and stack. Nothing is swallowed.
	FailFast ErrorPolicy = iota
	// SkipAndRecord converts a panicking candidate into a recorded
	// per-candidate failure: the panic is recovered inside the
	// evaluation, the candidate enters the result stream with Err set
	// to the *pool.PanicError, and the run continues. Which candidates
	// fail depends only on their vectors, so the result stream stays
	// byte-identical at every parallelism level.
	SkipAndRecord
)

// String returns the policy's flag-syntax name.
func (p ErrorPolicy) String() string {
	switch p {
	case FailFast:
		return "fail"
	case SkipAndRecord:
		return "skip"
	}
	return fmt.Sprintf("ErrorPolicy(%d)", int(p))
}

// ParseErrorPolicy parses the CLI spelling of an error policy: "fail"
// (fail-fast, the default) or "skip" (skip-and-record).
func ParseErrorPolicy(s string) (ErrorPolicy, error) {
	switch s {
	case "", "fail":
		return FailFast, nil
	case "skip":
		return SkipAndRecord, nil
	}
	return FailFast, fmt.Errorf("unknown error policy %q (want fail or skip)", s)
}

// ExploreOpts configures a design-space exploration run.
type ExploreOpts struct {
	// Strategy decides which vectors are evaluated, one generation at a
	// time (see dmmkit/internal/search). nil selects the exhaustive
	// ceiling-stride sampler capped at MaxCandidates — the classic
	// Explore behaviour. Strategies carry state; use a fresh value per
	// exploration.
	Strategy search.Strategy
	// MaxCandidates caps how many enumerated vectors are evaluated by
	// the default exhaustive strategy (default 128). The valid space
	// has ~144k points; evaluation samples it with a uniform stride,
	// never exceeding the cap. Ignored when Strategy is set.
	MaxCandidates int
	// IncludeDesigned additionally evaluates the methodology's design,
	// marking it in the result (default behaviour of Explore).
	IncludeDesigned bool
	// Parallelism is the number of concurrent evaluation workers: 0
	// defers to the Engine (whose own zero value means GOMAXPROCS), 1
	// forces sequential evaluation. Results are deterministic and
	// identical at every parallelism level.
	Parallelism int
	// OnCandidate, when set, streams every evaluated candidate in the
	// deterministic result order (proposal order, designed last) as
	// soon as it and all its predecessors are done. Calls are serialized.
	OnCandidate func(Candidate)
	// OnProgress, when set, reports completion counts after every
	// evaluated candidate. total is the number of evaluations scheduled
	// so far (the already-finished generations plus the one in flight,
	// plus the designed candidate when requested); adaptive strategies
	// grow it as they propose further generations. Calls are serialized.
	OnProgress func(done, total int)
	// Objectives selects the optimization axes. nil (or footprint alone)
	// is the classic scalar mode. Listing both footprint and work turns
	// on multi-objective Pareto mode: the engine additionally maintains
	// a Pareto front over the in-order candidate stream and reports
	// front changes through OnFront. The front is fed in deterministic
	// stream order — never completion order — so it is byte-identical at
	// every Parallelism. Work alone is rejected (see ParseObjectives).
	Objectives []Objective
	// OnFront, when set (Pareto mode only), streams the current Pareto
	// front — sorted by ascending footprint — every time an in-order
	// candidate changes it. Calls are serialized with OnCandidate and
	// OnProgress; the slice is a copy the callback may keep.
	OnFront func(front []Candidate)
	// OnCandidateError selects what a panicking candidate evaluation
	// does to the run: FailFast (default) aborts it, SkipAndRecord
	// turns the panic into the candidate's Err and continues.
	OnCandidateError ErrorPolicy
	// Prior replays the candidates of an earlier interrupted run
	// through the result stream — in order, before any new evaluation,
	// without re-evaluating them — so a resumed exploration emits the
	// byte-identical candidate (and Pareto front) stream of an
	// uninterrupted one. Params are re-derived from the trace profile;
	// restoring the Strategy to the matching state (search.Snapshotter)
	// is the caller's job. The engine does not verify that Prior and
	// the strategy state belong together.
	Prior []Candidate
	// AfterGeneration, when set, runs after each generation's results
	// are observed by the strategy — the point where strategy state is
	// clean between generations and a checkpoint is safe. cands is the
	// full in-order candidate slice so far (prior candidates included);
	// the callback must not mutate or retain it past the call. A
	// non-nil error aborts the exploration with that error.
	AfterGeneration func(cands []Candidate) error
}

// SpaceSize returns the number of valid decision vectors (144,480), read
// from the design-space index built on first use.
func SpaceSize() int { return dspace.SpaceSize() }

// Explore evaluates a uniform sample of the valid design space against a
// trace, returning every candidate with its measured footprint and work.
// It demonstrates what the paper's Sec. 3 claims: the space contains both
// the general-purpose managers and far better custom points, and
// exhaustive search is feasible once constraints prune the space.
//
// Explore is the convenience form of Engine.Explore with a background
// context and default parallelism.
func Explore(tr *trace.Trace, opts ExploreOpts) ([]Candidate, error) {
	return (&Engine{}).Explore(context.Background(), tr, opts)
}

// evalHook, when non-nil, runs at the start of every candidate
// evaluation. It exists for the panic-isolation tests, which use it to
// make a chosen vector pathological; production code never sets it.
var evalHook func(v dspace.Vector, designed bool)

// SetEvalHook installs evalHook and returns a function restoring the
// previous one. It exists so fault-injection tests outside this package
// (the server's panic-isolation suite) can reuse the same seam; like
// the variable itself, it must only be toggled while no exploration is
// in flight. Production code never calls it.
func SetEvalHook(hook func(v dspace.Vector, designed bool)) (restore func()) {
	prev := evalHook
	evalHook = hook
	return func() { evalHook = prev }
}

// evaluate builds the candidate manager and replays one streaming pass
// over the trace against it. Openers hand out independent sources, so
// evaluations run concurrently without sharing replay state.
func evaluate(ctx context.Context, v dspace.Vector, par Params, tr trace.Opener, designed bool) Candidate {
	if evalHook != nil {
		evalHook(v, designed)
	}
	c := Candidate{Vector: v, Params: par, Designed: designed}
	m, err := NewCustom(heap.New(heap.Config{}), v, par)
	if err != nil {
		c.Err = fmt.Errorf("core: building candidate: %w", err)
		return c
	}
	src, err := tr.Open()
	if err != nil {
		c.Err = fmt.Errorf("core: opening trace for candidate: %w", err)
		return c
	}
	res, err := trace.RunSource(ctx, m, src, trace.RunOpts{})
	if err != nil {
		c.Err = fmt.Errorf("core: replaying candidate: %w", err)
		return c
	}
	c.MaxFootprint = res.MaxFootprint
	c.Work = int64(res.Work)
	return c
}

// ParetoFront returns the candidates not dominated in (footprint, work),
// sorted by ascending footprint (equivalently, strictly descending
// work). Failed candidates are excluded, and among candidates sharing an
// objective point the first in slice order survives — the slice order of
// Explore results is deterministic, so the front (including which vector
// represents each point) is too.
func ParetoFront(cands []Candidate) []Candidate {
	var acc frontAccum
	for _, c := range cands {
		acc.add(c)
	}
	return acc.snapshot()
}

// frontAccum incrementally accumulates a candidate Pareto front over
// (footprint, work) by delegating all dominance decisions to
// search.ParetoFront — one copy of that logic in the module — while
// remembering the first-seen candidate per accepted objective point, so
// Designed, Params and Err travel with their point. Entries for points
// later evicted from the front go stale in the map; they are never
// referenced again and fronts are tiny, so they are not reaped.
type frontAccum struct {
	points search.ParetoFront
	cands  map[[2]int64]Candidate
}

// add offers c to the front, reporting whether it entered (evicting any
// members it dominates). Failed candidates never enter, and among
// candidates sharing an objective point the first added wins.
func (a *frontAccum) add(c Candidate) bool {
	ok := a.points.Add(search.Result{
		Footprint: c.MaxFootprint,
		Work:      c.Work,
		Failed:    c.Err != nil,
	})
	if !ok {
		return false
	}
	if a.cands == nil {
		a.cands = make(map[[2]int64]Candidate)
	}
	a.cands[[2]int64{c.MaxFootprint, c.Work}] = c
	return true
}

// snapshot returns a copy of the current front, sorted by ascending
// footprint.
func (a *frontAccum) snapshot() []Candidate {
	rs := a.points.Results()
	front := make([]Candidate, len(rs))
	for i, r := range rs {
		front[i] = a.cands[[2]int64{r.Footprint, r.Work}]
	}
	return front
}

// BestByFootprint returns the successful candidate with the smallest
// footprint, breaking ties by work. ok is false when every candidate
// failed.
func BestByFootprint(cands []Candidate) (Candidate, bool) {
	var best Candidate
	found := false
	for _, c := range cands {
		if c.Err != nil {
			continue
		}
		if !found || c.MaxFootprint < best.MaxFootprint ||
			(c.MaxFootprint == best.MaxFootprint && c.Work < best.Work) {
			best = c
			found = true
		}
	}
	return best, found
}
