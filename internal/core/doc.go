// Package core implements the paper's primary contribution: custom dynamic
// memory managers composed from the DM-management design space of Atienza
// et al. (DATE 2004).
//
// A core.Custom manager is built from one dspace.Vector — one leaf per
// orthogonal decision tree — plus numeric Params that the methodology
// derives from the application profile ("those decisions of the final
// custom DM manager that depend on its particular run-time behaviour",
// Sec. 5). The same engine therefore realizes Kingsley-like,
// Lea-like, region-like and the paper's custom managers, differing only in
// the decision vector, which is exactly the premise of the design space.
//
// The Designer type implements the Sec. 4 methodology: it walks the trees
// in the published order, applying the footprint heuristics and constraint
// propagation to produce a vector (and params) from a profile. The
// Global type composes per-phase atomic managers (Sec. 3.3).
//
// The Engine explores the design space concurrently: a search strategy
// (internal/search) proposes vectors one generation at a time — the
// exhaustive stride sampler, the seeded genetic algorithm, or the
// NSGA-II multi-objective variant — and the engine evaluates each
// generation on a worker pool (internal/pool), streaming candidates in a
// deterministic order that is identical at every parallelism level. With
// ExploreOpts.Objectives listing both footprint and work, the engine
// additionally maintains a Pareto front over the in-order candidate
// stream and reports front changes through ExploreOpts.OnFront, which is
// how the paper's central trade-off — smaller footprint at higher
// per-operation cost — is surfaced as a front instead of collapsed into
// a scalar.
package core
