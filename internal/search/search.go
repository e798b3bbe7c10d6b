package search

import "dmmkit/internal/dspace"

// Result is the measured fitness of one evaluated decision vector, as fed
// back to a Strategy. Lower footprint is better; work breaks ties (the
// same ordering core.BestByFootprint uses). Failed marks vectors whose
// manager could not be built or replayed — strategies must treat them as
// maximally unfit, not skip them, so that the evaluation accounting stays
// aligned with the proposal order.
type Result struct {
	Vector    dspace.Vector
	Footprint int64
	Work      int64
	Failed    bool
}

// Better reports whether a is strictly fitter than b: successful beats
// failed, then smaller footprint, then smaller work. Equal fitness is not
// "better", so sorts using Better are stable under it.
func Better(a, b Result) bool {
	if a.Failed != b.Failed {
		return !a.Failed
	}
	if a.Footprint != b.Footprint {
		return a.Footprint < b.Footprint
	}
	return a.Work < b.Work
}

// Strategy decides which design-space vectors to evaluate next, one
// generation at a time. The exploration engine alternates strictly between
// the two methods:
//
//	for batch := s.Next(); len(batch) > 0; batch = s.Next() {
//	    results := evaluate(batch) // in parallel, order preserved
//	    s.Observe(results)
//	}
//
// Next returns the next generation of vectors to evaluate; an empty batch
// ends the exploration. Observe receives the results of the last proposed
// batch, in proposal order. Strategies are not safe for concurrent use —
// the engine serializes all calls — and all strategy state (including any
// randomness) must be owned by the strategy itself so that a given
// strategy value replays identically at every evaluation parallelism.
type Strategy interface {
	Next() []dspace.Vector
	Observe(results []Result)
}

// Fixed pins decision trees to specific leaves, restricting a strategy to
// the subspace where every pinned tree holds its pinned leaf. A nil or
// empty Fixed is the whole valid space. Pinning is how tests shrink the
// space to an exhaustively checkable oracle and how callers explore "what
// if this decision were forced" scenarios.
type Fixed map[dspace.Tree]dspace.Leaf

// Matches reports whether v agrees with every pinned leaf.
func (f Fixed) Matches(v dspace.Vector) bool {
	for t := 0; t < dspace.NumTrees; t++ {
		if l, ok := f[dspace.Tree(t)]; ok && v.Get(dspace.Tree(t)) != l {
			return false
		}
	}
	return true
}

// pattern packs the pins into one pair over dspace codes: a valid vector
// lies in the pinned subspace exactly when its code c has c&mask == want,
// which is what Matches decides for the vector itself. As in Matches, a
// pin on a tree outside [0, NumTrees) is ignored, and a pin on a leaf its
// tree does not have leaves the subspace empty.
func (f Fixed) pattern() (mask, want dspace.Code) {
	for t, l := range f {
		m, w := dspace.Pin(t, l)
		mask |= m
		want |= w
	}
	return mask, want
}

// Size returns the number of valid vectors in the pinned subspace,
// counted over the design-space index (dspace.Codes).
func Size(fix Fixed) int {
	mask, want := fix.pattern()
	n := 0
	for _, c := range dspace.Codes() {
		if c&mask == want {
			n++
		}
	}
	return n
}

// Sample returns a uniform ceiling-stride sample of at most max valid
// vectors from the pinned subspace, in enumeration order: every stride-th
// match in the design-space index, starting with the first. The ceiling
// stride guarantees at most max samples: stride*max >= total, so
// ceil(total/stride) <= max.
func Sample(max int, fix Fixed) []dspace.Vector {
	if max <= 0 {
		return nil
	}
	total := Size(fix)
	if total == 0 {
		return nil
	}
	// ceil(total/max), written so that a max near math.MaxInt cannot
	// overflow it.
	stride := 1 + (total-1)/max
	vectors := make([]dspace.Vector, 0, 1+(total-1)/stride)
	mask, want := fix.pattern()
	skip := 0
	for _, c := range dspace.Codes() {
		if c&mask != want {
			continue
		}
		if skip == 0 {
			vectors = append(vectors, c.Vector())
			skip = stride
		}
		skip--
	}
	return vectors
}
