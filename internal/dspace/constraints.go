package dspace

import (
	"fmt"
	"strings"
)

// Rule is one interdependency between orthogonal trees (a full arrow in
// Fig. 2 of the paper). A rule fires only when every tree it references has
// been decided; Bad returns a non-empty explanation when the combination is
// incoherent.
type Rule struct {
	Name string
	Refs []Tree
	Bad  func(v *Vector) string
}

// Rules is the interdependency set implemented by this reproduction. The
// first two rules are the paper's worked example (Fig. 3): choosing "none"
// in the Block tags tree prohibits recording any information, and recorded
// information needs tags to live in.
var Rules = []Rule{
	{
		Name: "A3:none disables A4",
		Refs: []Tree{A3BlockTags, A4RecordedInfo},
		Bad: func(v *Vector) string {
			if v.BlockTags == NoTags && v.RecordedInfo != RecordNone {
				return "no space reserved by A3=none, yet A4 records information"
			}
			return ""
		},
	},
	{
		Name: "A3 tags need recorded size",
		Refs: []Tree{A3BlockTags, A4RecordedInfo},
		Bad: func(v *Vector) string {
			if v.BlockTags != NoTags && !a4HasSize(v.RecordedInfo) {
				return "tags reserved by A3 but A4 records no size to put in them"
			}
			return ""
		},
	},
	{
		Name: "A2:one-size disables A5",
		Refs: []Tree{A2BlockSizes, A5FlexBlockSize},
		Bad: func(v *Vector) string {
			if v.BlockSizes == OneBlockSize && v.Flex != NoFlex {
				return "a single fixed block size leaves nothing to split or coalesce"
			}
			return ""
		},
	},
	{
		Name: "A5 gates E2 splitting",
		Refs: []Tree{A5FlexBlockSize, E2SplitWhen},
		Bad: func(v *Vector) string {
			canSplit := v.Flex == SplitOnly || v.Flex == SplitCoalesce
			if !canSplit && v.SplitWhen != Never {
				return "E2 schedules splitting but A5 provides no splitting mechanism"
			}
			if canSplit && v.SplitWhen == Never {
				return "A5 provides splitting but E2 never uses it"
			}
			return ""
		},
	},
	{
		Name: "A5 gates D2 coalescing",
		Refs: []Tree{A5FlexBlockSize, D2CoalesceWhen},
		Bad: func(v *Vector) string {
			canCoal := v.Flex == CoalesceOnly || v.Flex == SplitCoalesce
			if !canCoal && v.CoalesceWhen != Never {
				return "D2 schedules coalescing but A5 provides no coalescing mechanism"
			}
			if canCoal && v.CoalesceWhen == Never {
				return "A5 provides coalescing but D2 never uses it"
			}
			return ""
		},
	},
	{
		Name: "splitting needs recorded size",
		Refs: []Tree{E2SplitWhen, A4RecordedInfo},
		Bad: func(v *Vector) string {
			if v.SplitWhen != Never && !a4HasSize(v.RecordedInfo) {
				return "a block cannot be split without storing its size (paper Sec. 4.2 example)"
			}
			return ""
		},
	},
	{
		Name: "coalescing needs status and boundary info",
		Refs: []Tree{D2CoalesceWhen, A3BlockTags, A4RecordedInfo},
		Bad: func(v *Vector) string {
			if v.CoalesceWhen == Never {
				return ""
			}
			if v.RecordedInfo < RecordSizeStatus {
				return "coalescing must know neighbour status, but A4 records no status"
			}
			if v.BlockTags != HeaderFooter && v.RecordedInfo != RecordSizeStatusPrev {
				return "backward coalescing needs footers (A3) or a prev-size field (A4)"
			}
			return ""
		},
	},
	{
		Name: "D2:never degenerates D1",
		Refs: []Tree{D2CoalesceWhen, D1MaxBlockSizes},
		Bad: func(v *Vector) string {
			if v.CoalesceWhen == Never && v.MaxBlockSizes != OneResultSize {
				return "no coalescing, so the max-block-size tree is degenerate"
			}
			return ""
		},
	},
	{
		Name: "E2:never degenerates E1",
		Refs: []Tree{E2SplitWhen, E1MinBlockSizes},
		Bad: func(v *Vector) string {
			if v.SplitWhen == Never && v.MinBlockSizes != OneResultSize {
				return "no splitting, so the min-block-size tree is degenerate"
			}
			return ""
		},
	},
	{
		Name: "D1:many-fixed needs fixed size set",
		Refs: []Tree{D1MaxBlockSizes, A2BlockSizes},
		Bad: func(v *Vector) string {
			if v.MaxBlockSizes == ManyFixedSet && v.BlockSizes != ManyFixedSizes {
				return "a fixed set of coalescing result sizes requires A2=many-fixed"
			}
			return ""
		},
	},
	{
		Name: "E1:many-fixed needs fixed size set",
		Refs: []Tree{E1MinBlockSizes, A2BlockSizes},
		Bad: func(v *Vector) string {
			if v.MinBlockSizes == ManyFixedSet && v.BlockSizes != ManyFixedSizes {
				return "a fixed set of splitting result sizes requires A2=many-fixed"
			}
			return ""
		},
	},
	{
		Name: "A2:one-size forces fixed-size pools",
		Refs: []Tree{A2BlockSizes, B4PoolRange},
		Bad: func(v *Vector) string {
			if v.BlockSizes == OneBlockSize && v.PoolRange != FixedSizePerPool {
				return "one global block size implies one fixed size per pool"
			}
			return ""
		},
	},
	{
		Name: "size classes imply pool division",
		Refs: []Tree{B4PoolRange, B1PoolDivision},
		Bad: func(v *Vector) string {
			classes := v.PoolRange == Pow2Classes || v.PoolRange == ExactClasses
			if classes && v.PoolDivision != PoolPerClass {
				return "size classes exist only when pools are divided per class"
			}
			if v.PoolRange == AnyRange && v.PoolDivision != SinglePool {
				return "an any-size pool cannot be divided per size class"
			}
			return ""
		},
	},
	{
		Name: "fixed-size pools with many sizes imply division",
		Refs: []Tree{B4PoolRange, A2BlockSizes, B1PoolDivision},
		Bad: func(v *Vector) string {
			if v.PoolRange == FixedSizePerPool && v.BlockSizes != OneBlockSize && v.PoolDivision != PoolPerClass {
				return "several block sizes with one size per pool require one pool per size"
			}
			return ""
		},
	},
	// The next two rules are implied by the tag/info rules above but are
	// stated directly so that ordered traversal prunes A3 without waiting
	// for A4 (keeping the walk iteration-free, as Sec. 3.1 requires).
	{
		Name: "coalescing needs tags",
		Refs: []Tree{D2CoalesceWhen, A3BlockTags},
		Bad: func(v *Vector) string {
			if v.CoalesceWhen != Never && v.BlockTags == NoTags {
				return "coalescing needs per-block metadata but A3 reserves none"
			}
			return ""
		},
	},
	{
		Name: "splitting needs tags",
		Refs: []Tree{E2SplitWhen, A3BlockTags},
		Bad: func(v *Vector) string {
			if v.SplitWhen != Never && v.BlockTags == NoTags {
				return "splitting needs per-block sizes but A3 reserves no space for them"
			}
			return ""
		},
	},
	{
		Name: "size-sorted structure needs recorded size",
		Refs: []Tree{A1BlockStructure, A4RecordedInfo},
		Bad: func(v *Vector) string {
			if v.BlockStructure == SizeSorted && !a4HasSize(v.RecordedInfo) {
				return "sorting free blocks by size requires recording sizes"
			}
			return ""
		},
	},
	{
		Name: "flexible block manager needs tags",
		Refs: []Tree{A5FlexBlockSize, A3BlockTags},
		Bad: func(v *Vector) string {
			if v.Flex != NoFlex && v.BlockTags == NoTags {
				return "split/coalesce mechanisms need per-block metadata but A3 reserves none"
			}
			return ""
		},
	},
	{
		Name: "size-sorted structure needs tags",
		Refs: []Tree{A1BlockStructure, A3BlockTags},
		Bad: func(v *Vector) string {
			if v.BlockStructure == SizeSorted && v.BlockTags == NoTags {
				return "sorting free blocks by size needs recorded sizes, but A3 reserves no space"
			}
			return ""
		},
	},
	{
		Name: "coalescing needs O(1) unlink",
		Refs: []Tree{D2CoalesceWhen, A1BlockStructure},
		Bad: func(v *Vector) string {
			if v.CoalesceWhen != Never && v.BlockStructure == SinglyLinked {
				return "coalescing must unlink a neighbour; singly-linked lists cannot (paper Sec. 5: doubly linked is the simplest DDT allowing split+coalesce)"
			}
			return ""
		},
	},
}

func a4HasSize(l Leaf) bool { return l >= RecordSize }

// ConstraintError describes a violated interdependency.
type ConstraintError struct {
	Rule   string
	Reason string
}

func (e *ConstraintError) Error() string {
	return fmt.Sprintf("dspace: %s: %s", e.Rule, e.Reason)
}

// Validate checks every interdependency against a fully decided vector.
func Validate(v *Vector) error {
	for _, r := range Rules {
		if msg := r.Bad(v); msg != "" {
			return &ConstraintError{Rule: r.Name, Reason: msg}
		}
	}
	return nil
}

// Decided tracks which trees have been decided during a traversal.
type Decided [NumTrees]bool

// With returns a copy with tree t marked decided.
func (d Decided) With(t Tree) Decided { d[t] = true; return d }

// All reports whether every tree is decided.
func (d Decided) All() bool {
	for _, b := range d {
		if !b {
			return false
		}
	}
	return true
}

// Allowed returns the leaves of tree t compatible with the decisions
// already taken in v (per d). This is the paper's constraint propagation:
// once a decision is taken in one tree it restricts the coherent choices in
// later trees.
func Allowed(t Tree, v Vector, d Decided) []Leaf {
	dd := d.With(t)
	var out []Leaf
	for l := 0; l < LeafCount(t); l++ {
		v.Set(t, Leaf(l))
		ok := true
		for _, r := range Rules {
			if !refsDecided(r, dd) {
				continue
			}
			if r.Bad(&v) != "" {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, Leaf(l))
		}
	}
	return out
}

// Explain returns all violations of a fully decided vector, for diagnostics.
func Explain(v *Vector) []string {
	var out []string
	for _, r := range Rules {
		if msg := r.Bad(v); msg != "" {
			out = append(out, r.Name+": "+msg)
		}
	}
	return out
}

func refsDecided(r Rule, d Decided) bool {
	for _, t := range r.Refs {
		if !d[t] {
			return false
		}
	}
	return true
}

// DescribeWalk renders a decision walk (tree order with chosen leaf names),
// used by the explorer CLI to show how a manager was derived.
func DescribeWalk(v Vector) string {
	var b strings.Builder
	for i, t := range Order {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%c%d:%s", t.Category(), treeIndexInCategory(t), LeafName(t, v.Get(t)))
	}
	return b.String()
}
