package search

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dmmkit/internal/dspace"
)

// Snapshotter is the checkpoint extension of Strategy: a strategy that
// can serialize its complete exploration state between generations and
// later restore it into a freshly constructed value, so an interrupted
// exploration resumes bit-identically.
//
// The contract mirrors the engine's generation barrier: Snapshot is only
// valid between generations (after Observe, before the next Next) and
// fails mid-generation; Restore must be called on a strategy built with
// the identical constructor arguments (seed and config) as the one that
// produced the snapshot — the snapshot carries the strategy kind and
// seed and Restore rejects mismatches, but the config is the caller's
// responsibility (the checkpoint file's metadata guards it at the CLI
// layer). After Restore, the strategy proposes exactly the generations
// the snapshotted strategy would have proposed next.
//
// All strategies of this package (Exhaustive, GA, NSGA) implement it.
type Snapshotter interface {
	// Snapshot serializes the strategy's state. It fails when called
	// mid-generation (between Next and Observe).
	Snapshot() ([]byte, error)
	// Restore replaces the strategy's state with a snapshot taken from a
	// strategy of the same kind, seed and config. It fails — without
	// corrupting the receiver — on malformed data or a kind/seed
	// mismatch; it never panics, whatever the input.
	Restore(data []byte) error
}

// countedSource wraps the stdlib PRNG stream behind a draw counter so a
// strategy can record its exact position in the stream (seed + draws
// consumed) and a restored strategy can fast-forward to that position.
//
// It deliberately implements only rand.Source (Int63), not Source64:
// rand.Rand prefers Uint64 when the source offers it, and hiding it pins
// every derived draw (Intn, Float64) to the Int63 path, which is what
// makes the draw count an exact replay cursor. The Int63 values are the
// ones rand.NewSource yields, so seeded runs reproduce the streams of
// earlier releases unchanged.
type countedSource struct {
	src  rand.Source
	seed int64
	n    uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed), seed: seed}
}

func (s *countedSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countedSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.seed, s.n = seed, 0
}

// reset rewinds the stream to its seed and fast-forwards n draws.
func (s *countedSource) reset(n uint64) {
	s.src.Seed(s.seed)
	s.n = 0
	for s.n < n {
		s.Int63()
	}
}

// vectorState is the wire form of a dspace.Vector: one leaf index per
// tree, in tree order.
type vectorState [dspace.NumTrees]uint8

func vectorToState(v dspace.Vector) vectorState {
	var s vectorState
	for t := 0; t < dspace.NumTrees; t++ {
		s[t] = uint8(v.Get(dspace.Tree(t)))
	}
	return s
}

// vector decodes the wire form, rejecting out-of-range leaves so a
// forged snapshot cannot smuggle an invalid genome into a search.
func (s vectorState) vector() (dspace.Vector, error) {
	var v dspace.Vector
	for t := 0; t < dspace.NumTrees; t++ {
		if int(s[t]) >= dspace.LeafCount(dspace.Tree(t)) {
			return v, fmt.Errorf("search: tree %v has no leaf %d", dspace.Tree(t), s[t])
		}
		v.Set(dspace.Tree(t), dspace.Leaf(s[t]))
	}
	return v, nil
}

// resultState is the wire form of a Result.
type resultState struct {
	Vector    vectorState `json:"v"`
	Footprint int64       `json:"f"`
	Work      int64       `json:"w"`
	Failed    bool        `json:"x,omitempty"`
}

func resultToState(r Result) resultState {
	return resultState{Vector: vectorToState(r.Vector), Footprint: r.Footprint, Work: r.Work, Failed: r.Failed}
}

func (s resultState) result() (Result, error) {
	v, err := s.Vector.vector()
	if err != nil {
		return Result{}, err
	}
	return Result{Vector: v, Footprint: s.Footprint, Work: s.Work, Failed: s.Failed}, nil
}

func resultsToState(rs []Result) []resultState {
	out := make([]resultState, len(rs))
	for i, r := range rs {
		out[i] = resultToState(r)
	}
	return out
}

func resultsFromState(ss []resultState) ([]Result, error) {
	out := make([]Result, len(ss))
	for i, s := range ss {
		r, err := s.result()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// evaluatedToState serializes the fitness cache sorted by genome, so the
// snapshot bytes are deterministic for a given state (map iteration
// order never leaks into the file).
func evaluatedToState(m map[dspace.Vector]Result) []resultState {
	out := make([]resultState, 0, len(m))
	for _, r := range m {
		out = append(out, resultToState(r))
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Vector[:], out[j].Vector[:]) < 0 })
	return out
}

// geneticSnapshot is the serialized state shared by GA and NSGA; Kind
// discriminates the two, Best travels only with GA and Front only with
// NSGA.
type geneticSnapshot struct {
	Kind      string        `json:"kind"`
	Seed      int64         `json:"seed"`
	Draws     uint64        `json:"draws"`
	Evaluated []resultState `json:"evaluated"`
	Pop       []resultState `json:"pop"`
	Front     []resultState `json:"front,omitempty"`
	Gen       int           `json:"gen"`
	Stale     int           `json:"stale"`
	Best      *resultState  `json:"best,omitempty"`
	Exhausted bool          `json:"exhausted,omitempty"`
	Done      bool          `json:"done,omitempty"`
}

// Snapshot implements Snapshotter: it serializes the search's complete
// state (RNG position, fitness cache, parent pool, convergence counters,
// and the variant's own state: GA's best, NSGA's archive front) between
// generations.
func (g *genetic) Snapshot() ([]byte, error) {
	if g.current != nil {
		return nil, fmt.Errorf("search: %s snapshot mid-generation (call between Observe and Next)", strings.ToUpper(g.kind))
	}
	snap := geneticSnapshot{
		Kind:      g.kind,
		Seed:      g.src.seed,
		Draws:     g.src.n,
		Evaluated: evaluatedToState(g.evaluated),
		Pop:       resultsToState(g.pop),
		Gen:       g.gen,
		Stale:     g.stale,
		Exhausted: g.exhausted,
		Done:      g.done,
	}
	g.policy.save(&snap)
	return json.Marshal(snap)
}

// Restore implements Snapshotter. The receiver must have been built by
// the same constructor (NewGA or NewNSGA) with the snapshot's seed and
// the original config. States the search can never reach — negative
// counters, or a search still running past its seed generation with no
// parents to breed from — are rejected.
func (g *genetic) Restore(data []byte) error {
	var snap geneticSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("search: decoding %s snapshot: %w", g.kind, err)
	}
	switch {
	case snap.Kind != g.kind:
		return fmt.Errorf("search: snapshot is from a %q strategy, restoring into %q", snap.Kind, g.kind)
	case snap.Seed != g.src.seed:
		return fmt.Errorf("search: snapshot was seeded with %d, strategy with %d", snap.Seed, g.src.seed)
	case snap.Gen < 0 || snap.Stale < 0:
		return fmt.Errorf("search: %s snapshot has negative counters (gen %d, stale %d)", g.kind, snap.Gen, snap.Stale)
	case snap.Gen > 0 && !snap.Done && len(snap.Pop) == 0:
		return fmt.Errorf("search: %s snapshot continues after generation %d with an empty population", g.kind, snap.Gen)
	}
	cache, err := resultsFromState(snap.Evaluated)
	if err != nil {
		return err
	}
	pop, err := resultsFromState(snap.Pop)
	if err != nil {
		return err
	}
	if err := g.policy.load(&snap); err != nil {
		return err
	}
	g.src.reset(snap.Draws)
	g.evaluated = make(map[dspace.Vector]Result, len(cache))
	for _, r := range cache {
		g.evaluated[r.Vector] = r
	}
	g.pop = pop
	g.current, g.pending = nil, nil
	g.gen = snap.Gen
	g.stale = snap.Stale
	g.exhausted = snap.Exhausted
	g.done = snap.Done
	return nil
}

// save and load implement geneticPolicy: GA's own state is its best
// individual.
func (g *GA) save(snap *geneticSnapshot) {
	if g.haveBest {
		b := resultToState(g.best)
		snap.Best = &b
	}
}

func (g *GA) load(snap *geneticSnapshot) error {
	var best Result
	if snap.Best != nil {
		var err error
		if best, err = snap.Best.result(); err != nil {
			return err
		}
	}
	g.best, g.haveBest = best, snap.Best != nil
	return nil
}

// save stores the archive front as a sequence: its first-seen tie-breaks
// depend on insertion history, so it cannot be rebuilt from the unordered
// fitness cache.
func (n *NSGA) save(snap *geneticSnapshot) { snap.Front = resultsToState(n.front.Results()) }

func (n *NSGA) load(snap *geneticSnapshot) error {
	results, err := resultsFromState(snap.Front)
	if err != nil {
		return err
	}
	var front ParetoFront
	for _, r := range results {
		front.Add(r)
	}
	n.front = front
	return nil
}

// exhaustiveSnapshot is the serialized state of Exhaustive: whether the
// single sample generation was already proposed.
type exhaustiveSnapshot struct {
	Kind     string `json:"kind"`
	Proposed bool   `json:"proposed"`
}

// Snapshot implements Snapshotter.
func (e *Exhaustive) Snapshot() ([]byte, error) {
	return json.Marshal(exhaustiveSnapshot{Kind: "exhaustive", Proposed: e.proposed})
}

// Restore implements Snapshotter.
func (e *Exhaustive) Restore(data []byte) error {
	var snap exhaustiveSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("search: decoding exhaustive snapshot: %w", err)
	}
	if snap.Kind != "exhaustive" {
		return fmt.Errorf("search: snapshot is from a %q strategy, restoring into %q", snap.Kind, "exhaustive")
	}
	e.proposed = snap.Proposed
	return nil
}
