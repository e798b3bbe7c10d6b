// Package dspace models the dynamic-memory-management design space of
// Atienza et al. (DATE 2004): fifteen orthogonal decision trees grouped in
// five categories, the interdependencies between them (Fig. 2/3 of the
// paper), and the traversal order for reduced memory footprint (Sec. 4.2).
//
// Any combination of one leaf per tree is a candidate DM manager; the
// constraint rules reject incoherent combinations exactly as the paper's
// full-arrow interdependencies do. The package also indexes the valid
// region of the space, 144,480 vectors, for exhaustive exploration and
// for every search's first generation (see "The index" below).
//
// # The categories (paper Fig. 1)
//
// The paper's Fig. 1 organizes the fifteen trees in five categories, each
// answering one question a DM manager designer must decide:
//
//   - Category A, creating block structures — what a block physically is:
//     A1 the dynamic data type holding free blocks (singly/doubly linked,
//     size-sorted), A2 whether block sizes are fixed or variable, A3
//     which tag fields a block carries (none, header, header+footer), A4
//     what those tags record (nothing, size, size+status,
//     size+status+prevsize), and A5 which flexible-size mechanisms exist
//     (none, split, coalesce, both).
//
//   - Category B, pool division based on criterion — how the heap is
//     partitioned: B1 one pool vs. one per size class, B2 the structure
//     organizing the pools (array or list), B3 pools shared across
//     behavioural phases or private per phase, and B4 the block-size
//     range a pool serves (one fixed size, power-of-two classes, exact
//     classes, any size).
//
//   - Category C, allocating blocks — the allocation policy: C1 the fit
//     algorithm (first, next, best, worst, exact) and C2 the free-list
//     ordering discipline (LIFO, FIFO, address order).
//
//   - Category D, coalescing blocks — recombining freed neighbours: D1
//     the block sizes allowed to result from coalescing and D2 how often
//     coalescing runs (never, deferred, always).
//
//   - Category E, splitting blocks — the dual of D: E1 the block sizes
//     allowed to result from splitting and E2 how often splitting runs.
//
// A Vector records one Leaf per Tree — an "atomic DM manager" in the
// paper's notation. Rules encodes the interdependencies (choosing "none"
// in A3 prohibits recording information in A4; scheduling coalescing in
// D2 requires status bits in A4 and a mechanism in A5; ...). Allowed
// propagates those constraints during an ordered traversal, Validate
// checks a complete vector, and Enumerate visits the whole valid region in
// the paper's published order (Order) with pruning.
//
// Figure 1 of the paper (the tree diagram) is not machine-readable in the
// available text; leaf sets are reconstructed from the prose, the Sec. 5
// walkthrough, and Wilson et al.'s survey the paper builds on. See
// DESIGN.md §4 for the mapping.
//
// # The index
//
// The valid region does not depend on any trace, so it is walked once per
// process, on first use, and kept as a table of Codes: each vector packed
// into 28 bits of a uint32, in traversal order. Enumerate, SpaceSize and
// Codes read the table; the search package counts and stride-samples
// pinned subspaces over it with one mask compare per code (Pin). The walk
// checks each rule once, at the position in Order where the last tree it
// references is decided, and validates every vector it stores. It takes
// about 26 ms on a 2-core x86-64 container (go1.24) and leaves 581,632
// bytes (568 KiB) resident; reading the whole table through Enumerate
// takes about 4 ms and allocates nothing.
package dspace
