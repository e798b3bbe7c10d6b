// Package search provides pluggable design-space search strategies for
// the exploration engine.
//
// The valid design space of Atienza et al. (DATE 2004) holds ~144k
// decision vectors (see dmmkit/internal/dspace). Evaluating one vector
// means replaying a whole allocation trace against the manager it
// describes, so the interesting question is not "can we enumerate the
// space" but "which vectors are worth evaluating". A Strategy answers
// that question one generation at a time: Next proposes a batch of
// vectors, the engine evaluates them in parallel (each against a private
// simulated heap), and Observe feeds the measured fitness back in
// proposal order before the next batch is proposed.
//
// Three strategies are provided:
//
//   - Exhaustive is the non-adaptive baseline: a single generation
//     holding a uniform ceiling-stride sample of the valid space in
//     enumeration order. It is the policy the engine uses when no
//     strategy is supplied, and its output needs no seed to reproduce.
//
//   - GA is a deterministic seeded genetic algorithm in the spirit of the
//     follow-up work on evolutionary DMM optimization (grammatical
//     evolution and parallel evolutionary algorithms over the same
//     design space): tournament selection, per-tree uniform crossover,
//     per-tree mutation, constraint repair, elitism, deduplication
//     against every vector already evaluated, and a convergence stop
//     after a configurable number of stale generations. It typically
//     reaches the exhaustive sample's best footprint while evaluating a
//     small fraction of the candidates.
//
//   - NSGA is the multi-objective variant (NSGA-II): the same genome
//     operators, but selection by Pareto rank over (footprint, work) —
//     non-dominated sorting with crowding-distance truncation — so the
//     search converges to the whole footprint×work trade-off front
//     rather than a single scalar optimum. It maintains an archive
//     ParetoFront over every evaluated vector and stops once the front
//     is stale for a configurable number of generations.
//
// GA and NSGA run one generational loop (genetic.go): the seeded random
// stream, the seed generation, breeding with crossover, mutation, repair
// and dedup, the fitness cache, the MaxEvaluations trim, the convergence
// counters and the snapshot codec. Each supplies only a policy: how
// parents are chosen (ga.go: elite plus scalar tournament; nsga.go:
// crowded tournament), which individuals survive a generation and what
// counts as progress (a new best; a changed archive front), and the
// state it adds to a snapshot (the best individual; the archive front).
//
// The Pareto primitives are shared: Dominates defines strict dominance
// over (footprint, work), ParetoFront accumulates a deterministic
// non-dominated set (first-seen wins among equal objective points), and
// FrontOf computes the front of a result slice in one shot.
//
// Genomes are dspace.Vector values. Crossover and mutation recombine
// leaves freely, which routinely breaks the design-space
// interdependencies; Repair projects any genome back onto the nearest
// valid vector by walking the trees in the paper's traversal order with
// constraint propagation and backtracking. Fixed pins chosen trees to
// chosen leaves, restricting a strategy to a subspace — small enough
// subspaces can be enumerated outright, which is how the tests hold the
// GA against an exhaustive oracle.
//
// Sample, which seeds the exhaustive strategy and the genetic strategies'
// first generation, and Size read the design-space index that dspace
// builds once per process (dspace.Codes). A Fixed becomes one (mask, want)
// pair over the packed codes, so the whole space and a pinned subspace
// take the same path: count the matching codes, then take every
// stride-th match. Once the index is built, a 12-vector sample takes
// about 0.3 ms and allocates only its result; the first call in a
// process pays the build (about 30 ms).
//
// Determinism contract: a Strategy owns all of its randomness, and the
// engine serializes Next/Observe around parallel evaluation barriers.
// Identical seed and configuration therefore reproduce the identical
// proposal sequence — and identical exploration results — at every
// evaluation parallelism level.
package search
