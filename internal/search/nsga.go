package search

import (
	"math"
	"sort"

	"dmmkit/internal/dspace"
)

// NSGA is a deterministic seeded NSGA-II-style genetic search over the
// design space, optimizing footprint and work jointly instead of
// collapsing them to a single scalar. It reuses the GA's machinery —
// the generational loop in genetic.go: the ceiling-stride seed
// generation, per-tree uniform crossover and mutation, constraint
// repair, deduplication against every vector already evaluated, the
// evaluation budget and the snapshot codec — but replaces scalar fitness
// with Pareto rank: parents are picked by the crowded-comparison
// operator (non-domination rank first, then crowding distance), and
// survivor selection keeps the best Population individuals of the
// combined parent+offspring pool by non-dominated sorting with
// crowding-distance truncation of the last front, which makes elitism
// implicit (GAConfig.Elite is ignored).
//
// The search maintains an archive ParetoFront over every evaluated
// vector; Front returns it at any time. It stops after
// GAConfig.Generations generations, or earlier once GAConfig.Patience
// consecutive generations fail to change the archive front
// (convergence), or when GAConfig.MaxEvaluations is spent.
//
// Determinism: exactly as GA — randomness is consumed only inside Next,
// results are observed in proposal order, and all sorts below are either
// keyed on a total order or stable over deterministically-ordered input,
// so identical seed and config reproduce the identical proposal sequence
// and the identical front at every evaluation parallelism level.
type NSGA struct {
	genetic
	front ParetoFront // archive over every evaluated vector
}

// NewNSGA returns a seeded multi-objective genetic search strategy.
// Identical seed and config yield an identical exploration (see the
// determinism contract on NSGA). GAConfig.Elite is ignored: NSGA-II's
// survivor selection is inherently elitist.
func NewNSGA(seed int64, cfg GAConfig) *NSGA {
	n := &NSGA{}
	n.genetic = newGenetic("nsga", seed, cfg, n)
	return n
}

// Front returns the archive Pareto front over every vector evaluated so
// far, sorted by ascending footprint. It is empty before the first
// generation is scored.
func (n *NSGA) Front() []Result { return n.front.Results() }

// parents implements geneticPolicy: no elite (survivor selection keeps
// the best), and every parent wins a crowded tournament over the
// survivors.
func (n *NSGA) parents() ([]dspace.Vector, func() dspace.Vector) {
	ranks, crowding := rankAndCrowd(n.pop)
	return nil, func() dspace.Vector { return n.pop[n.tournament(ranks, crowding)].Vector }
}

// tournament draws cfg.Tournament individuals from the survivor pool and
// returns the index of the winner by the crowded-comparison operator:
// lower non-domination rank wins, ties go to the larger crowding
// distance, remaining ties to the first individual drawn.
func (n *NSGA) tournament(ranks []int, crowding []float64) int {
	best := n.rng.Intn(len(n.pop))
	for i := 1; i < n.cfg.Tournament; i++ {
		c := n.rng.Intn(len(n.pop))
		if ranks[c] < ranks[best] || (ranks[c] == ranks[best] && crowding[c] > crowding[best]) {
			best = c
		}
	}
	return best
}

// survive implements geneticPolicy: the archive front absorbs the
// offspring, and survivor selection truncates the combined
// parent+offspring pool back to Population individuals. Progress means
// the archive front changed.
func (n *NSGA) survive(offspring []Result) ([]Result, bool) {
	frontChanged := false
	for _, r := range offspring {
		if n.front.Add(r) {
			frontChanged = true
		}
	}
	// Combine survivors and offspring (deduplicated: a child may rediscover
	// a surviving parent's vector) and keep the best Population of them.
	combined := make([]Result, 0, len(n.pop)+len(offspring))
	inPool := make(map[dspace.Vector]bool, len(n.pop)+len(offspring))
	for _, r := range append(append([]Result{}, n.pop...), offspring...) {
		if !inPool[r.Vector] {
			inPool[r.Vector] = true
			combined = append(combined, r)
		}
	}
	return selectSurvivors(combined, n.cfg.Population), frontChanged
}

// selectSurvivors is NSGA-II environmental selection: non-dominated sort
// the pool, admit whole fronts while they fit, and truncate the last
// front by descending crowding distance (stable, so pool order breaks
// exact ties deterministically).
func selectSurvivors(pool []Result, size int) []Result {
	if len(pool) <= size {
		return pool
	}
	fronts := nonDominatedSort(pool)
	survivors := make([]Result, 0, size)
	for _, front := range fronts {
		if len(survivors)+len(front) <= size {
			for _, i := range front {
				survivors = append(survivors, pool[i])
			}
			continue
		}
		crowd := crowdingDistances(pool, front)
		idx := append([]int(nil), front...)
		sort.SliceStable(idx, func(a, b int) bool {
			return crowd[idx[a]] > crowd[idx[b]]
		})
		for _, i := range idx[:size-len(survivors)] {
			survivors = append(survivors, pool[i])
		}
		break
	}
	return survivors
}

// rankAndCrowd computes, for every individual, its non-domination rank
// (0 = Pareto-optimal within the pool) and its crowding distance within
// its own front.
func rankAndCrowd(pool []Result) (ranks []int, crowding []float64) {
	ranks = make([]int, len(pool))
	crowding = make([]float64, len(pool))
	for fi, front := range nonDominatedSort(pool) {
		crowd := crowdingDistances(pool, front)
		for _, i := range front {
			ranks[i] = fi
			crowding[i] = crowd[i]
		}
	}
	return ranks, crowding
}

// nonDominatedSort partitions pool into successive non-dominated fronts
// (Deb's fast non-dominated sort): front 0 is the pool's Pareto set,
// front 1 is the Pareto set of the remainder, and so on. Each front
// preserves pool order, so the result is deterministic in the input
// order. Failed results dominate nothing and are dominated by every
// successful one, so they sink to the last fronts naturally.
func nonDominatedSort(pool []Result) [][]int {
	n := len(pool)
	dominatedBy := make([]int, n) // how many pool members dominate i
	dominates := make([][]int, n) // which members i dominates
	var current []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if Dominates(pool[i], pool[j]) {
				dominates[i] = append(dominates[i], j)
			} else if Dominates(pool[j], pool[i]) {
				dominatedBy[i]++
			}
		}
		if dominatedBy[i] == 0 {
			current = append(current, i)
		}
	}
	var fronts [][]int
	for len(current) > 0 {
		fronts = append(fronts, current)
		var next []int
		for _, i := range current {
			for _, j := range dominates[i] {
				if dominatedBy[j]--; dominatedBy[j] == 0 {
					next = append(next, j)
				}
			}
		}
		sort.Ints(next) // pool order, independent of domination-list order
		current = next
	}
	return fronts
}

// crowdingDistances computes NSGA-II crowding distances for one front:
// per objective, the front is sorted by that objective, boundary
// individuals get +Inf, and interior ones accumulate the normalized gap
// between their neighbours. The returned slice is indexed like pool
// (entries outside the front are zero). Failed results score zero on
// both objectives, which is fine: they only ever share a front with each
// other.
func crowdingDistances(pool []Result, front []int) []float64 {
	dist := make([]float64, len(pool))
	if len(front) <= 2 {
		for _, i := range front {
			dist[i] = math.Inf(1)
		}
		return dist
	}
	for _, objective := range []func(Result) float64{
		func(r Result) float64 { return float64(r.Footprint) },
		func(r Result) float64 { return float64(r.Work) },
	} {
		idx := append([]int(nil), front...)
		sort.SliceStable(idx, func(a, b int) bool {
			return objective(pool[idx[a]]) < objective(pool[idx[b]])
		})
		lo, hi := objective(pool[idx[0]]), objective(pool[idx[len(idx)-1]])
		dist[idx[0]] = math.Inf(1)
		dist[idx[len(idx)-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for k := 1; k < len(idx)-1; k++ {
			dist[idx[k]] += (objective(pool[idx[k+1]]) - objective(pool[idx[k-1]])) / (hi - lo)
		}
	}
	return dist
}
