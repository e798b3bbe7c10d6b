package search

import (
	"math/rand"

	"dmmkit/internal/dspace"
)

// GAConfig tunes the genetic algorithm. Zero values select the documented
// defaults, so GAConfig{} is a usable configuration.
type GAConfig struct {
	// Population is the number of individuals per generation (default 24).
	Population int
	// Generations caps the number of generations, counting the seed
	// generation (default 40).
	Generations int
	// Elite individuals survive unchanged into the next generation
	// (default 2).
	Elite int
	// Tournament is the selection tournament size (default 3): each parent
	// is the fittest of Tournament individuals drawn at random.
	Tournament int
	// CrossoverRate is the probability a child is bred by per-tree uniform
	// crossover rather than cloned from its first parent (default 0.9).
	CrossoverRate float64
	// MutationRate is the per-tree probability of replacing a child's leaf
	// with a uniformly random one before repair (default 0.1).
	MutationRate float64
	// Patience stops the search after this many consecutive generations
	// without improving the best individual (default 4).
	Patience int
	// MaxEvaluations, when > 0, hard-caps the total number of vectors the
	// search proposes for evaluation: the generation that would cross the
	// cap is trimmed to fit and becomes the last. It bounds exploration
	// cost precisely regardless of how convergence plays out.
	MaxEvaluations int
	// Fix restricts the search to a pinned subspace (nil = whole space).
	Fix Fixed
}

func (c *GAConfig) defaults() {
	if c.Population <= 0 {
		c.Population = 24
	}
	if c.Generations <= 0 {
		c.Generations = 40
	}
	if c.Elite <= 0 {
		c.Elite = 2
	}
	if c.Elite > c.Population {
		c.Elite = c.Population
	}
	if c.Tournament <= 0 {
		c.Tournament = 3
	}
	if c.CrossoverRate <= 0 {
		c.CrossoverRate = 0.9
	}
	if c.MutationRate <= 0 {
		c.MutationRate = 0.1
	}
	if c.Patience <= 0 {
		c.Patience = 4
	}
}

// genetic is the generational loop GA and NSGA share: the seeded random
// stream, the fitness cache of every evaluated vector, the ceiling-stride
// seed generation, breeding (per-tree crossover and mutation, Repair,
// dedup within the generation), the MaxEvaluations trim, the convergence
// counters and the snapshot codec. What tells the two apart is its
// policy: how parents are chosen, which individuals survive a
// generation, and what counts as progress. The determinism contract is
// the one documented on GA.
type genetic struct {
	cfg    GAConfig
	kind   string // snapshot kind: "ga" or "nsga"
	policy geneticPolicy
	rng    *rand.Rand
	src    *countedSource // rng's stream, counted for Snapshot/Restore

	evaluated map[dspace.Vector]Result // fitness cache across generations
	pop       []Result                 // parent pool of the next generation
	current   []dspace.Vector          // generation being evaluated
	pending   []dspace.Vector          // current members not in the cache

	gen       int
	stale     int
	exhausted bool // evaluation budget spent: current generation is the last
	done      bool
}

// geneticPolicy is what a generational search variant decides for itself;
// everything else is the shared loop. Its methods read the loop's state
// (pop, cfg, rng) through the embedded genetic.
type geneticPolicy interface {
	// parents prepares breeding from pop: the members copied unchanged
	// into the next generation, and the selector that draws one parent.
	parents() (elite []dspace.Vector, pick func() dspace.Vector)
	// survive folds a scored generation, in member order, into the next
	// parent pool and reports whether the search made progress.
	survive(scored []Result) (pool []Result, improved bool)
	// save and load carry the variant's own state in a snapshot; load
	// leaves the receiver untouched when it fails.
	save(*geneticSnapshot)
	load(*geneticSnapshot) error
}

func newGenetic(kind string, seed int64, cfg GAConfig, p geneticPolicy) genetic {
	cfg.defaults()
	src := newCountedSource(seed)
	return genetic{
		cfg:       cfg,
		kind:      kind,
		policy:    p,
		rng:       rand.New(src),
		src:       src,
		evaluated: make(map[dspace.Vector]Result),
	}
}

// Next proposes the unevaluated members of the next generation.
// Generations whose members are all cache hits are scored and skipped
// without proposing anything, so an empty batch always means the search is
// over.
func (g *genetic) Next() []dspace.Vector {
	for !g.done {
		if g.current == nil {
			g.buildGeneration()
			continue
		}
		if len(g.pending) > 0 {
			return g.pending
		}
		// Every member was already evaluated in an earlier generation:
		// score from the cache alone and move on.
		g.finish(nil)
	}
	return nil
}

// Observe folds the results of the last proposed batch back into the
// fitness cache (in proposal order) and closes out the generation.
func (g *genetic) Observe(results []Result) {
	if g.current != nil {
		g.finish(results)
	}
}

// Evaluations returns how many vectors the search has had evaluated so far
// (cache hits excluded).
func (g *genetic) Evaluations() int { return len(g.evaluated) }

// Generation returns how many generations have been scored.
func (g *genetic) Generation() int { return g.gen }

// buildGeneration fills g.current with the next population and g.pending
// with its members that still need evaluation.
func (g *genetic) buildGeneration() {
	var members []dspace.Vector
	if g.gen == 0 {
		members = Sample(g.cfg.Population, g.cfg.Fix)
	} else {
		members = g.breedGeneration()
	}
	if len(members) == 0 {
		g.done = true
		return
	}
	// The budget trim drops the members past the evaluation cap from the
	// generation, so unevaluable individuals never join the population.
	capped := g.cfg.MaxEvaluations > 0
	room := g.cfg.MaxEvaluations - len(g.evaluated)
	if capped && room <= 0 {
		g.exhausted = true // budget spent: even an all-cache-hit generation is the last
	}
	g.current, g.pending = members[:0], g.pending[:0]
	for _, v := range members {
		if _, hit := g.evaluated[v]; !hit {
			if capped && len(g.pending) >= room {
				g.exhausted = true
				continue
			}
			g.pending = append(g.pending, v)
		}
		g.current = append(g.current, v)
	}
}

// breedGeneration produces the next population: the policy's elite, then
// children of two selected parents by crossover, mutation and repair.
// Members are unique within the generation; children that duplicate an
// already-evaluated vector are admitted (their cached fitness keeps
// selection honest) but will not be re-evaluated.
func (g *genetic) breedGeneration() []dspace.Vector {
	elite, pick := g.policy.parents()
	members := make([]dspace.Vector, 0, g.cfg.Population)
	inGen := make(map[dspace.Vector]bool, g.cfg.Population)
	for _, v := range elite {
		if !inGen[v] {
			inGen[v] = true
			members = append(members, v)
		}
	}
	// The attempt cap keeps tiny subspaces from spinning: once the
	// neighbourhood is exhausted the generation simply runs short.
	for attempts := 40 * g.cfg.Population; len(members) < g.cfg.Population && attempts > 0; attempts-- {
		a := pick()
		b := pick()
		child, ok := Repair(g.crossoverMutate(a, b), g.cfg.Fix)
		if !ok || inGen[child] {
			continue
		}
		inGen[child] = true
		members = append(members, child)
	}
	return members
}

// crossoverMutate builds a raw child genome from two parents: per-tree
// uniform crossover at CrossoverRate, then per-tree uniform mutation at
// MutationRate. The child may violate the design-space constraints and
// must be repaired. The rng consumption pattern depends only on the rates,
// which is what keeps seeded runs reproducible.
func (g *genetic) crossoverMutate(a, b dspace.Vector) dspace.Vector {
	child := a
	if g.rng.Float64() < g.cfg.CrossoverRate {
		for t := 0; t < dspace.NumTrees; t++ {
			if g.rng.Intn(2) == 1 {
				child.Set(dspace.Tree(t), b.Get(dspace.Tree(t)))
			}
		}
	}
	for t := 0; t < dspace.NumTrees; t++ {
		if g.rng.Float64() < g.cfg.MutationRate {
			child.Set(dspace.Tree(t), dspace.Leaf(g.rng.Intn(dspace.LeafCount(dspace.Tree(t)))))
		}
	}
	return child
}

// finish scores the generation: results arrive in proposal order for
// g.pending, cached members score from the cache, the policy picks the
// survivors, and the convergence counters advance.
func (g *genetic) finish(results []Result) {
	for i, v := range g.pending {
		if i >= len(results) {
			break
		}
		r := results[i]
		r.Vector = v
		g.evaluated[v] = r
	}
	scored := make([]Result, 0, len(g.current))
	for _, v := range g.current {
		if r, ok := g.evaluated[v]; ok { // missing: evaluation was cut short (cancellation)
			scored = append(scored, r)
		}
	}
	pop, improved := g.policy.survive(scored)
	g.pop = pop
	g.current, g.pending = nil, nil
	g.gen++
	// The seed generation establishes the baseline; staleness counts only
	// later generations that make no progress.
	if improved || g.gen == 1 {
		g.stale = 0
	} else {
		g.stale++
	}
	if len(scored) == 0 || len(pop) == 0 || g.gen >= g.cfg.Generations ||
		g.stale >= g.cfg.Patience || g.exhausted {
		g.done = true
	}
}
