package search

import (
	"sort"

	"dmmkit/internal/dspace"
)

// GA is a deterministic seeded genetic algorithm over the design space:
// tournament selection, per-tree uniform crossover, per-tree mutation,
// constraint repair (Repair), elitism, and deduplication against every
// vector already evaluated. The seed generation is the same ceiling-stride
// sample Exhaustive uses, scaled to the population size, so the search
// starts spread across the valid space rather than clustered.
//
// Determinism: the random source is consumed only inside Next, which the
// engine calls from a single goroutine between evaluation barriers, and
// Observe folds results back in proposal order. Identical seed and config
// therefore produce the identical sequence of proposals — and the identical
// best vector — at every evaluation parallelism level.
//
// The search stops after GAConfig.Generations generations, or earlier once
// GAConfig.Patience consecutive generations fail to improve the best
// individual (convergence), or when the subspace is exhausted.
type GA struct {
	genetic
	best     Result
	haveBest bool
}

// NewGA returns a seeded genetic search strategy. Identical seed and
// config yield an identical exploration (see the determinism contract on
// GA).
func NewGA(seed int64, cfg GAConfig) *GA {
	g := &GA{}
	g.genetic = newGenetic("ga", seed, cfg, g)
	return g
}

// Best returns the fittest result observed so far; ok is false before the
// first generation is scored.
func (g *GA) Best() (best Result, ok bool) { return g.best, g.haveBest }

// parents implements geneticPolicy: the Elite fittest of the previous
// generation carry over, and every parent is a tournament winner.
func (g *GA) parents() ([]dspace.Vector, func() dspace.Vector) {
	ranked := append([]Result(nil), g.pop...)
	sort.SliceStable(ranked, func(i, j int) bool { return Better(ranked[i], ranked[j]) })
	elite := make([]dspace.Vector, 0, g.cfg.Elite)
	for i := 0; i < g.cfg.Elite && i < len(ranked); i++ {
		elite = append(elite, ranked[i].Vector)
	}
	return elite, g.tournament
}

// tournament draws cfg.Tournament individuals from the previous
// generation and returns the fittest one's vector.
func (g *GA) tournament() dspace.Vector {
	best := g.pop[g.rng.Intn(len(g.pop))]
	for i := 1; i < g.cfg.Tournament; i++ {
		if c := g.pop[g.rng.Intn(len(g.pop))]; Better(c, best) {
			best = c
		}
	}
	return best.Vector
}

// survive implements geneticPolicy: the scored generation is the next
// parent pool, and progress means a new best individual.
func (g *GA) survive(scored []Result) ([]Result, bool) {
	prevBest, hadBest := g.best, g.haveBest
	for _, r := range scored {
		if !g.haveBest || Better(r, g.best) {
			g.best, g.haveBest = r, true
		}
	}
	return scored, !hadBest || Better(g.best, prevBest)
}
