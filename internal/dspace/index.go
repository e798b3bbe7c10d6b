package dspace

import (
	"math/bits"
	"slices"
	"sync"
)

// Code is a Vector packed into an integer: each tree's leaf sits in a bit
// field just wide enough for the tree's leaves, tree A1 lowest, which
// takes 28 bits for the fifteen trees. Masking a code selects trees
// without unpacking it, which is how pinned subspaces are counted and
// sampled (see Pin). The code is kept to four bytes because the index
// stays live for the life of the process, and the garbage collector lets
// the heap grow to about twice the live bytes: each byte of the index
// costs about two of resident memory.
type Code uint32

// field is one tree's bit field in a Code.
type field struct {
	shift uint
	mask  Code // the field's bits, in place
}

// fields lays the trees out in a Code in tree order.
var fields = func() (f [NumTrees]field) {
	shift := uint(0)
	for t := range f {
		w := uint(bits.Len(uint(LeafCount(Tree(t)) - 1)))
		f[t] = field{shift, (1<<w - 1) << shift}
		shift += w
	}
	if shift > 31 { // bit 31 is noCode's
		panic("dspace: the trees' leaves do not fit in a Code")
	}
	return f
}()

// noCode is a bit no code sets: a (mask, want) pair holding it in both
// halves matches nothing.
const noCode Code = 1 << 31

// Pin returns the pair that selects leaf l of tree t: a code c holds that
// leaf exactly when c&mask == want. Pairs combine by OR-ing their masks
// and their wants. A tree outside [0, NumTrees) yields a pair every code
// matches, and a leaf the tree does not have yields one no code matches.
func Pin(t Tree, l Leaf) (mask, want Code) {
	switch {
	case t < 0 || int(t) >= NumTrees:
		return 0, 0
	case int(l) >= LeafCount(t):
		return noCode, noCode
	}
	f := fields[t]
	return f.mask, Code(l) << f.shift
}

// Vector unpacks the code.
func (c Code) Vector() Vector {
	leaf := func(t Tree) Leaf {
		f := fields[t]
		return Leaf(c & f.mask >> f.shift)
	}
	return Vector{
		BlockStructure: leaf(A1BlockStructure),
		BlockSizes:     leaf(A2BlockSizes),
		BlockTags:      leaf(A3BlockTags),
		RecordedInfo:   leaf(A4RecordedInfo),
		Flex:           leaf(A5FlexBlockSize),
		PoolDivision:   leaf(B1PoolDivision),
		PoolStruct:     leaf(B2PoolStruct),
		PoolPhase:      leaf(B3PoolPhase),
		PoolRange:      leaf(B4PoolRange),
		Fit:            leaf(C1Fit),
		FreeOrder:      leaf(C2FreeOrder),
		MaxBlockSizes:  leaf(D1MaxBlockSizes),
		CoalesceWhen:   leaf(D2CoalesceWhen),
		MinBlockSizes:  leaf(E1MinBlockSizes),
		SplitWhen:      leaf(E2SplitWhen),
	}
}

// codes is the valid region of the design space. It does not depend on
// any trace, so it is built once per process, on first use, and shared.
var codes = sync.OnceValue(buildCodes)

// Codes returns the code of every valid vector, in Enumerate's order. The
// slice is built on the first call and shared by every caller, which must
// not modify it.
func Codes() []Code { return codes() }

// SpaceSize returns the number of valid decision vectors (144,480).
func SpaceSize() int { return len(codes()) }

// Enumerate calls fn for every valid vector of the design space, in the
// paper's traversal order with constraint pruning (see buildCodes). fn
// returns false to stop early. Enumerate returns the number of valid
// vectors visited.
func Enumerate(fn func(Vector) bool) int {
	for i, c := range codes() {
		if !fn(c.Vector()) {
			return i + 1
		}
	}
	return len(codes())
}

// buildCodes walks the valid region depth first, deciding the trees in
// Order and each tree's leaves in ascending order. Every rule reads only
// the trees it references, so a rule is checked once, at the position in
// Order where the last of them is decided: that is the first point at
// which it can fire, and the leaves that pass there are exactly those
// Allowed returns. Each complete vector is still validated before it is
// stored.
func buildCodes() []Code {
	var pos [NumTrees]int
	for i, t := range Order {
		pos[t] = i
	}
	b := codeBuilder{}
	for _, r := range Rules {
		last := 0
		for _, t := range r.Refs {
			last = max(last, pos[t])
		}
		b.rules[last] = append(b.rules[last], r.Bad)
	}
	b.walk(0, 0)
	return slices.Clone(b.out)
}

// codeBuilder is buildCodes' walk state: the vector decided so far, the
// rules to check at each position in Order, and the codes found.
type codeBuilder struct {
	v     Vector
	rules [NumTrees][]func(*Vector) string
	out   []Code
}

func (b *codeBuilder) walk(i int, c Code) {
	if i == len(Order) {
		if Validate(&b.v) == nil {
			b.out = append(b.out, c)
		}
		return
	}
	t := Order[i]
	for l := Leaf(0); int(l) < LeafCount(t); l++ {
		b.v.Set(t, l)
		if b.allowed(i) {
			b.walk(i+1, c|Code(l)<<fields[t].shift)
		}
	}
}

// allowed reports whether the vector passes every rule checked at
// position i.
func (b *codeBuilder) allowed(i int) bool {
	for _, bad := range b.rules[i] {
		if bad(&b.v) != "" {
			return false
		}
	}
	return true
}
