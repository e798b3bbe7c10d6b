// Package dmmkit is a library for designing custom dynamic memory (DM)
// managers with reduced memory footprint, reproducing the methodology of
// Atienza, Mamagkakis, Catthoor, Mendias and Soudris, "Dynamic Memory
// Management Design Methodology for Reduced Memory Footprint in Multimedia
// and Wireless Network Applications" (DATE 2004).
//
// The library provides:
//
//   - a simulated byte-addressable heap (allocator metadata lives in-band,
//     so footprint and fragmentation measurements are byte-accurate);
//   - the paper's design space of fifteen orthogonal decision trees with
//     interdependency constraints, ordered traversal and enumeration;
//   - a custom-manager engine that realizes any valid decision vector;
//   - the methodology: profile an application's allocation trace, walk
//     the trees in the published order with footprint heuristics, and
//     build an atomic manager per behavioural phase (composed into a
//     global manager);
//   - reference implementations of the paper's baselines: Kingsley
//     (power-of-two segregated fits), Lea (dlmalloc/ptmalloc policy),
//     region/partition managers, and GNU-style obstacks;
//   - the paper's three case studies as trace-producing workloads (DRR
//     network scheduling, 3D image reconstruction, 3D scalable-mesh
//     rendering) and drivers that regenerate every table and figure of
//     the evaluation.
//
// # Quick start
//
//	tr := dmmkit.DRRTrace(dmmkit.DRRConfig{Seed: 1})
//	prof := dmmkit.Profile(tr)
//	design := dmmkit.Design(prof)      // the methodology's tree walk
//	mgr, _ := design.Build(dmmkit.NewHeap())
//	res, _ := dmmkit.Replay(context.Background(), mgr, tr, dmmkit.ReplayOpts{})
//	fmt.Println(res.MaxFootprint)      // bytes requested from the system
//
// See the examples directory for complete programs.
package dmmkit

import (
	"context"
	"fmt"
	"io"
	"os"

	"dmmkit/internal/alloc/kingsley"
	"dmmkit/internal/alloc/lea"
	"dmmkit/internal/alloc/obstack"
	"dmmkit/internal/alloc/region"
	"dmmkit/internal/core"
	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/profile"
	"dmmkit/internal/registry"
	"dmmkit/internal/trace"
	"dmmkit/internal/workloads/drr"
	"dmmkit/internal/workloads/recon3d"
	"dmmkit/internal/workloads/render3d"
)

// Core memory-management types.
type (
	// Heap is the simulated byte-addressable heap every manager runs on.
	Heap = heap.Heap
	// HeapConfig configures heap construction (page size, limits).
	HeapConfig = heap.Config
	// Addr is an address inside a heap.
	Addr = heap.Addr
	// Manager is the DM manager interface (Alloc/Free/Footprint/Stats).
	Manager = mm.Manager
	// Request describes one allocation (size, tag, phase).
	Request = mm.Request
	// Stats holds cumulative manager counters.
	Stats = mm.Stats
	// Work is the architecture-neutral execution-time proxy.
	Work = mm.Work
)

// Design-space types (the paper's Sec. 3).
type (
	// Vector is one point of the design space: a leaf per decision tree.
	Vector = dspace.Vector
	// Tree identifies one orthogonal decision tree (A1..E2).
	Tree = dspace.Tree
	// Leaf is a decision within a tree.
	Leaf = dspace.Leaf
)

// Methodology types (the paper's Sec. 4).
type (
	// DesignResult is a designed manager: vector, params, decision log.
	DesignResult = core.Design
	// Params are the profile-derived numeric parameters of a design.
	Params = core.Params
	// CustomManager is an atomic manager realizing a decision vector.
	CustomManager = core.Custom
	// GlobalManager composes per-phase atomic managers (Sec. 3.3).
	GlobalManager = core.Global
	// AppProfile summarizes an application's DM behaviour.
	AppProfile = profile.Profile
	// SizeStats aggregates the allocations of one request size.
	SizeStats = profile.SizeStats
	// PhaseProfile is the per-phase slice of a profile.
	PhaseProfile = profile.PhaseProfile
)

// Trace types.
type (
	// Trace is an application allocation trace.
	Trace = trace.Trace
	// TraceEvent is one dynamic-memory operation of a trace.
	TraceEvent = trace.Event
	// TraceBuilder incrementally constructs well-formed traces.
	TraceBuilder = trace.Builder
	// ReplayOpts configures trace replay.
	ReplayOpts = trace.RunOpts
	// ReplayResult reports footprint statistics of a replay.
	ReplayResult = trace.Result
	// TraceSource streams trace events for out-of-core replay.
	TraceSource = trace.Source
	// TraceOpener yields independent streaming passes over one logical
	// trace (*Trace and *TraceFile implement it).
	TraceOpener = trace.Opener
	// TraceFile is a TraceOpener over an on-disk DMMT2 trace.
	TraceFile = trace.File
	// TraceEncoder writes the streamable DMMT2 binary format; it is an
	// EventSink, so generation can pipe straight to disk.
	TraceEncoder = trace.Encoder
	// EventSink consumes generated events as they are emitted.
	EventSink = trace.EventSink
	// TraceStats wraps an EventSink with event/peak-live accounting.
	TraceStats = trace.StatsSink
)

// Event kinds of a TraceEvent.
const (
	// KindAlloc marks an allocation event.
	KindAlloc = trace.KindAlloc
	// KindFree marks a deallocation event.
	KindFree = trace.KindFree
)

// Workload configurations (the paper's case studies).
type (
	// DRRConfig parameterizes the Deficit Round Robin case study.
	DRRConfig = drr.Config
	// Recon3DConfig parameterizes the 3D reconstruction case study.
	Recon3DConfig = recon3d.Config
	// Render3DConfig parameterizes the scalable rendering case study.
	Render3DConfig = render3d.Config
)

// Errors.
var (
	// ErrOutOfMemory is returned when a heap limit is exceeded.
	ErrOutOfMemory = mm.ErrOutOfMemory
	// ErrBadFree is returned when freeing an unknown or dead block.
	ErrBadFree = mm.ErrBadFree
	// ErrBadSize is returned for non-positive request sizes.
	ErrBadSize = mm.ErrBadSize
)

// NewHeap returns a simulated heap with default configuration.
func NewHeap() *Heap { return heap.New(heap.Config{}) }

// NewHeapWith returns a simulated heap with the given configuration.
func NewHeapWith(cfg HeapConfig) *Heap { return heap.New(cfg) }

// NewKingsley returns a Kingsley power-of-two manager over h (the paper's
// "Kingsley-Windows" baseline).
func NewKingsley(h *Heap) Manager { return kingsley.New(h) }

// NewLea returns a Lea/dlmalloc-style manager over h with glibc-like
// defaults (the paper's "Lea-Linux" baseline).
func NewLea(h *Heap) Manager { return lea.New(h, lea.Config{}) }

// NewRegions returns a region/partition manager over h. sizer chooses a
// region's fixed block size from its tag and first request; nil selects
// power-of-two rounding of the first request.
func NewRegions(h *Heap, sizer func(tag int, firstReq int64) int64) Manager {
	return region.New(h, sizer)
}

// NewObstack returns a GNU-style obstack manager over h.
func NewObstack(h *Heap) Manager { return obstack.New(h, 0) }

// NewCustom builds the atomic manager described by a decision vector and
// params, validating the vector against the design-space constraints.
func NewCustom(h *Heap, v Vector, p Params) (*CustomManager, error) {
	return core.NewCustom(h, v, p)
}

// ValidateVector checks a decision vector against the interdependency
// rules of the design space (Fig. 2/3 of the paper).
func ValidateVector(v Vector) error { return dspace.Validate(&v) }

// EnumerateVectors walks every valid decision vector, calling fn until it
// returns false; it returns the number visited. The valid space has
// ~144k points.
func EnumerateVectors(fn func(Vector) bool) int { return dspace.Enumerate(fn) }

// Profile computes the DM behaviour profile of a trace.
func Profile(t *Trace) *AppProfile { return profile.FromTrace(t) }

// Design runs the paper's methodology on a profile: the ordered tree walk
// with constraint propagation and footprint heuristics (Sec. 4.2).
func Design(p *AppProfile) DesignResult { return core.DesignFor(p) }

// DesignGlobal designs and builds the application's global manager: one
// atomic manager per behavioural phase when phases are memory-disjoint, a
// single atomic manager otherwise. It returns the manager and the
// per-phase designs.
func DesignGlobal(name string, p *AppProfile) (*GlobalManager, map[int]DesignResult, error) {
	return core.BuildGlobal(name, p)
}

// Replay runs a trace against a manager and reports footprint statistics.
// Cancelling ctx stops the replay between events.
func Replay(ctx context.Context, m Manager, t *Trace, opts ReplayOpts) (ReplayResult, error) {
	return trace.Run(ctx, m, t, opts)
}

// ReplaySource replays an event stream against a manager: the out-of-core
// form of Replay, with memory bounded by the application's live set
// rather than the trace length. Results are identical to Replay on the
// materialized equivalent of the stream.
func ReplaySource(ctx context.Context, m Manager, src TraceSource, opts ReplayOpts) (ReplayResult, error) {
	return trace.RunSource(ctx, m, src, opts)
}

// ProfileSource computes the DM behaviour profile from an event stream in
// one pass, without materializing the trace; ProfileSource(t.Source()) is
// identical to Profile(t).
func ProfileSource(src TraceSource) (*AppProfile, error) { return profile.FromSource(src) }

// NewTraceEncoder returns a streaming DMMT2 encoder writing to w: call
// Begin, WriteEvent per event (or hand it to a workload as an EventSink),
// then Close. See OpenTraceFile / LoadTrace for reading the file back.
func NewTraceEncoder(w io.Writer) *TraceEncoder { return trace.NewEncoder(w) }

// OpenTraceFile probes a DMMT2 trace file and returns a TraceOpener whose
// every Open streams the file from disk with O(live-set) replay memory.
func OpenTraceFile(path string) (*TraceFile, error) { return trace.OpenFile(path) }

// Exploration types.
type (
	// Candidate is one evaluated design-space point.
	Candidate = core.Candidate
	// ExploreOpts configures design-space exploration: sample size,
	// objectives, parallelism, streaming and progress callbacks.
	ExploreOpts = core.ExploreOpts
	// Engine fans design-space exploration out over a worker pool with
	// deterministic, parallelism-independent results.
	Engine = core.Engine
	// Objective identifies one optimization axis of an exploration
	// (footprint, work).
	Objective = core.Objective
)

// The two measured objectives. Setting ExploreOpts.Objectives to both
// turns on multi-objective Pareto mode: the engine maintains a
// footprint×work Pareto front over the in-order candidate stream and
// reports changes through ExploreOpts.OnFront.
const (
	// ObjectiveFootprint is the paper's primary metric: peak bytes
	// requested from the system.
	ObjectiveFootprint = core.ObjectiveFootprint
	// ObjectiveWork is the architecture-neutral execution-time proxy.
	ObjectiveWork = core.ObjectiveWork
)

// ParseObjectives parses a comma-separated objective list as accepted by
// the CLIs: "footprint" (classic scalar mode) or "footprint,work" in
// either order (multi-objective Pareto mode). An empty string selects
// the default, footprint only; work alone is rejected.
func ParseObjectives(s string) ([]Objective, error) { return core.ParseObjectives(s) }

// NewEngine returns an exploration engine with the given default worker
// count (<= 0 means GOMAXPROCS).
func NewEngine(parallelism int) *Engine { return core.NewEngine(parallelism) }

// Explore evaluates design-space candidates against a trace (plus the
// methodology's design), returning measured candidates in a deterministic
// order. Candidates come from opts.Strategy — nil selects a uniform
// exhaustive sample capped at opts.MaxCandidates; NewGASearch selects the
// seeded genetic search. It is the convenience form of Engine.Explore;
// evaluation parallelizes per opts.Parallelism (default GOMAXPROCS) with
// results identical to a sequential run.
func Explore(ctx context.Context, t *Trace, opts ExploreOpts) ([]Candidate, error) {
	return core.NewEngine(0).Explore(ctx, t, opts)
}

// ExploreSource is Explore over any TraceOpener — an in-memory *Trace or
// an on-disk *TraceFile: every candidate replays its own streaming pass,
// so exploring a long binary capture never materializes the events. It is
// the convenience form of Engine.ExploreSource.
func ExploreSource(ctx context.Context, t TraceOpener, opts ExploreOpts) ([]Candidate, error) {
	return core.NewEngine(0).ExploreSource(ctx, t, opts)
}

// SpaceSize returns the number of valid decision vectors (~144k), cached
// after the first enumeration.
func SpaceSize() int { return core.SpaceSize() }

// Registry types. The registry is the toolkit's extension point: managers
// and workloads register by name, and every consumer (experiments, CLIs,
// examples) constructs them through a lookup. The built-ins self-register:
// managers "kingsley", "lea", "regions", "obstack", "custom" (the
// methodology's per-phase global manager) and "designed" (one atomic
// designed manager); workloads "drr", "recon3d" and "render3d".
type (
	// ManagerCtor builds a fresh manager over a heap for a trace whose
	// profile is given; either argument may be nil.
	ManagerCtor = registry.ManagerCtor
	// WorkloadCtor generates one allocation trace of a workload.
	WorkloadCtor = registry.WorkloadCtor
	// WorkloadOpts parameterizes workload trace generation (seed, quick).
	WorkloadOpts = registry.WorkloadOpts
)

// RegisterManager makes a manager family available under name; it panics
// on a duplicate name or nil constructor.
func RegisterManager(name string, ctor ManagerCtor) { registry.RegisterManager(name, ctor) }

// RegisterWorkload makes a trace-producing workload available under name;
// it panics on a duplicate name or nil constructor.
func RegisterWorkload(name string, ctor WorkloadCtor) { registry.RegisterWorkload(name, ctor) }

// NewManagerByName constructs a fresh manager of the named registered
// family. A nil heap selects a default heap; p may be nil for families
// that need no profile ("kingsley", "lea", "obstack").
func NewManagerByName(name string, h *Heap, p *AppProfile) (Manager, error) {
	return registry.NewManager(name, h, p)
}

// BuildWorkload generates the named registered workload's trace.
func BuildWorkload(name string, opts WorkloadOpts) (*Trace, error) {
	return registry.BuildWorkload(name, opts)
}

// Managers lists the registered manager names, sorted.
func Managers() []string { return registry.Managers() }

// Workloads lists the registered workload names, sorted.
func Workloads() []string { return registry.Workloads() }

// ParetoFront filters candidates to the footprint/work Pareto front.
func ParetoFront(cands []Candidate) []Candidate { return core.ParetoFront(cands) }

// BestByFootprint returns the successful candidate with the smallest
// footprint, breaking ties by work; ok is false when every candidate
// failed.
func BestByFootprint(cands []Candidate) (Candidate, bool) { return core.BestByFootprint(cands) }

// NewTraceBuilder returns a builder for a named trace.
func NewTraceBuilder(name string) *TraceBuilder { return trace.NewBuilder(name) }

// LoadTrace reads a DMMT2 trace file written by the dmmtrace tool or a
// TraceEncoder into memory and validates it (frees must match live
// allocations, sizes must be positive), so a corrupt or hand-damaged file
// fails at load instead of mid-replay.
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read path: a close failure after a full decode is moot
	t, err := trace.DecodeBinary(f)
	if err != nil {
		return nil, fmt.Errorf("dmmkit: %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// DRRTrace generates the Deficit-Round-Robin case study's allocation
// trace (synthetic internet traffic through the DRR scheduler).
func DRRTrace(cfg DRRConfig) *Trace {
	res, err := drr.BuildTrace(cfg)
	if err != nil {
		// The builders fail only on contradictory configurations, which
		// the zero value never is; treat it as a programmer error.
		panic(err)
	}
	return res.Trace
}

// Recon3DTrace generates the 3D image-reconstruction case study's trace.
func Recon3DTrace(cfg Recon3DConfig) *Trace {
	res, err := recon3d.BuildTrace(cfg)
	if err != nil {
		panic(err)
	}
	return res.Trace
}

// Render3DTrace generates the scalable-rendering case study's trace.
func Render3DTrace(cfg Render3DConfig) *Trace {
	res, err := render3d.BuildTrace(cfg)
	if err != nil {
		panic(err)
	}
	return res.Trace
}
