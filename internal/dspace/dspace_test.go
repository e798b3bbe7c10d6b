package dspace

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// leaFamilyVector is a Lea-like point in the space: variable sizes, full
// boundary tags, split+coalesce always, single pool, best fit.
func leaFamilyVector() Vector {
	return Vector{
		BlockStructure: DoublyLinked,
		BlockSizes:     ManyVarSizes,
		BlockTags:      HeaderFooter,
		RecordedInfo:   RecordSizeStatus,
		Flex:           SplitCoalesce,
		PoolDivision:   SinglePool,
		PoolStruct:     PoolArray,
		PoolPhase:      SharedPools,
		PoolRange:      AnyRange,
		Fit:            BestFit,
		FreeOrder:      LIFOOrder,
		MaxBlockSizes:  ManyNotFixed,
		CoalesceWhen:   Always,
		MinBlockSizes:  ManyNotFixed,
		SplitWhen:      Always,
	}
}

// kingsleyFamilyVector is a Kingsley-like point: power-of-two classes, no
// split/coalesce, headers with size only.
func kingsleyFamilyVector() Vector {
	return Vector{
		BlockStructure: SinglyLinked,
		BlockSizes:     ManyFixedSizes,
		BlockTags:      HeaderTag,
		RecordedInfo:   RecordSize,
		Flex:           NoFlex,
		PoolDivision:   PoolPerClass,
		PoolStruct:     PoolArray,
		PoolPhase:      SharedPools,
		PoolRange:      Pow2Classes,
		Fit:            FirstFit,
		FreeOrder:      LIFOOrder,
		MaxBlockSizes:  OneResultSize,
		CoalesceWhen:   Never,
		MinBlockSizes:  OneResultSize,
		SplitWhen:      Never,
	}
}

// drrPaperVector is the custom manager the paper derives for DRR in Sec. 5:
// many variable sizes, split+coalesce always, unbounded result sizes,
// single pool, exact fit, doubly linked list, header with size and status.
func drrPaperVector() Vector {
	return Vector{
		BlockStructure: DoublyLinked,
		BlockSizes:     ManyVarSizes,
		BlockTags:      HeaderTag,
		RecordedInfo:   RecordSizeStatusPrev,
		Flex:           SplitCoalesce,
		PoolDivision:   SinglePool,
		PoolStruct:     PoolArray,
		PoolPhase:      SharedPools,
		PoolRange:      AnyRange,
		Fit:            ExactFit,
		FreeOrder:      LIFOOrder,
		MaxBlockSizes:  ManyNotFixed,
		CoalesceWhen:   Always,
		MinBlockSizes:  ManyNotFixed,
		SplitWhen:      Always,
	}
}

func TestKnownManagersValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    Vector
	}{
		{"lea-family", leaFamilyVector()},
		{"kingsley-family", kingsleyFamilyVector()},
		{"drr-custom (paper Sec.5)", drrPaperVector()},
	} {
		if err := Validate(&tc.v); err != nil {
			t.Errorf("%s should be valid: %v", tc.name, err)
		}
	}
}

func TestFig3InterdependencyA3A4(t *testing.T) {
	// Paper Fig. 3: choosing "none" in Block tags prohibits the Block
	// recorded info tree.
	v := kingsleyFamilyVector()
	v.BlockTags = NoTags
	v.RecordedInfo = RecordSize
	if err := Validate(&v); err == nil {
		t.Error("A3=none with A4=size validated; Fig. 3 forbids it")
	}
	v.RecordedInfo = RecordNone
	// Still invalid: Kingsley's free list needs sizes... actually with
	// implicit per-pool sizes, no-tag blocks are coherent.
	if err := Validate(&v); err != nil {
		t.Errorf("A3=none with A4=none should validate for fixed-size pools: %v", err)
	}
}

func TestFig4OrderExampleConstraint(t *testing.T) {
	// Paper Fig. 4 / Sec. 4.2: with A3=none decided first, the only
	// coherent D2/E2 leaf is "never".
	v := Vector{}
	v.Set(A3BlockTags, NoTags)
	var d Decided
	d[A3BlockTags] = true
	got := Allowed(D2CoalesceWhen, v, d)
	if len(got) != 1 || got[0] != Never {
		t.Errorf("Allowed(D2 | A3=none) = %v, want [never]", got)
	}
	got = Allowed(E2SplitWhen, v, d)
	if len(got) != 1 || got[0] != Never {
		t.Errorf("Allowed(E2 | A3=none) = %v, want [never]", got)
	}
}

func TestSplitWithoutSizeInfoInvalid(t *testing.T) {
	v := drrPaperVector()
	v.RecordedInfo = RecordNone
	if err := Validate(&v); err == nil {
		t.Error("split+coalesce without recorded size validated")
	}
}

func TestCoalesceNeedsBackwardInfo(t *testing.T) {
	v := drrPaperVector()
	v.BlockTags = HeaderTag
	v.RecordedInfo = RecordSizeStatus // no prev-size, no footer
	if err := Validate(&v); err == nil {
		t.Error("coalescing without footers or prev-size validated")
	}
	v.RecordedInfo = RecordSizeStatusPrev
	if err := Validate(&v); err != nil {
		t.Errorf("coalescing with prev-size field should validate: %v", err)
	}
	v.RecordedInfo = RecordSizeStatus
	v.BlockTags = HeaderFooter
	if err := Validate(&v); err != nil {
		t.Errorf("coalescing with footers should validate: %v", err)
	}
}

func TestOneBlockSizeDisablesFlex(t *testing.T) {
	v := kingsleyFamilyVector()
	v.BlockSizes = OneBlockSize
	v.PoolRange = FixedSizePerPool
	if err := Validate(&v); err != nil {
		t.Fatalf("fixed-size base vector invalid: %v", err)
	}
	v.Flex = SplitCoalesce
	if err := Validate(&v); err == nil {
		t.Error("one block size with split+coalesce validated")
	}
}

func TestAllowedNeverEmptyAlongOrder(t *testing.T) {
	// Following the paper's order with constraint propagation must never
	// paint the walk into a corner: at every step at least one leaf of
	// the next tree is allowed. Randomized over many walks.
	rng := rand.New(rand.NewSource(42))
	for walk := 0; walk < 200; walk++ {
		var v Vector
		var d Decided
		for _, tree := range Order {
			leaves := Allowed(tree, v, d)
			if len(leaves) == 0 {
				t.Fatalf("walk %d: no allowed leaf for %v after %v", walk, tree, DescribeWalk(v))
			}
			v.Set(tree, leaves[rng.Intn(len(leaves))])
			d[tree] = true
		}
		if err := Validate(&v); err != nil {
			t.Fatalf("walk %d produced invalid vector: %v\n%v", walk, err, v)
		}
	}
}

func TestEnumerateAllValid(t *testing.T) {
	n := Enumerate(func(v Vector) bool {
		if err := Validate(&v); err != nil {
			t.Fatalf("Enumerate yielded invalid vector: %v", err)
		}
		return true
	})
	if n == 0 {
		t.Fatal("Enumerate found no valid vectors")
	}
	t.Logf("valid design space size: %d", n)
	// The space must be large enough to contain the general-purpose
	// managers and the paper's custom ones, yet far smaller than the
	// unconstrained cross product.
	total := 1
	for i := 0; i < NumTrees; i++ {
		total *= LeafCount(Tree(i))
	}
	if n >= total {
		t.Errorf("enumeration (%d) not pruned below cross product (%d)", n, total)
	}
	if n < 100 {
		t.Errorf("valid space suspiciously small: %d", n)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	count := 0
	n := Enumerate(func(Vector) bool {
		count++
		return count < 5
	})
	if n != 5 || count != 5 {
		t.Errorf("early stop visited %d/%d vectors, want 5/5", count, n)
	}
}

func TestEnumerateContainsKnownManagers(t *testing.T) {
	want := map[string]Vector{
		"lea":      leaFamilyVector(),
		"kingsley": kingsleyFamilyVector(),
		"drr":      drrPaperVector(),
	}
	found := map[string]bool{}
	Enumerate(func(v Vector) bool {
		for name, w := range want {
			if v == w {
				found[name] = true
			}
		}
		return true
	})
	for name := range want {
		if !found[name] {
			t.Errorf("enumeration does not contain the %s vector", name)
		}
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	var v Vector
	for i := 0; i < NumTrees; i++ {
		tree := Tree(i)
		for l := 0; l < LeafCount(tree); l++ {
			v.Set(tree, Leaf(l))
			if got := v.Get(tree); got != Leaf(l) {
				t.Errorf("%v: Get after Set(%d) = %d", tree, l, got)
			}
		}
	}
}

func TestOrderMatchesPaper(t *testing.T) {
	// Sec. 4.2: A2->A5->E2->D2->E1->D1->B4->B1->...->C1->...->A1->A3->A4.
	wantPrefix := []Tree{A2BlockSizes, A5FlexBlockSize, E2SplitWhen, D2CoalesceWhen, E1MinBlockSizes, D1MaxBlockSizes, B4PoolRange, B1PoolDivision}
	for i, w := range wantPrefix {
		if Order[i] != w {
			t.Fatalf("Order[%d] = %v, want %v", i, Order[i], w)
		}
	}
	// The published suffix must appear in relative order.
	rest := []Tree{C1Fit, A1BlockStructure, A3BlockTags, A4RecordedInfo}
	idx := func(t Tree) int {
		for i, o := range Order {
			if o == t {
				return i
			}
		}
		return -1
	}
	for i := 1; i < len(rest); i++ {
		if idx(rest[i-1]) >= idx(rest[i]) {
			t.Errorf("order of %v and %v disagrees with the paper", rest[i-1], rest[i])
		}
	}
	if len(Order) != NumTrees {
		t.Errorf("Order covers %d trees, want %d", len(Order), NumTrees)
	}
}

func TestNamesAndStrings(t *testing.T) {
	for i := 0; i < NumTrees; i++ {
		tree := Tree(i)
		if strings.Contains(tree.String(), "Tree(") {
			t.Errorf("tree %d has no name", i)
		}
		if LeafCount(tree) < 2 {
			t.Errorf("%v has fewer than 2 leaves", tree)
		}
		for l := 0; l < LeafCount(tree); l++ {
			if strings.Contains(LeafName(tree, Leaf(l)), "leaf(") {
				t.Errorf("%v leaf %d has no name", tree, l)
			}
		}
	}
	v := drrPaperVector()
	s := v.String()
	for _, frag := range []string{"A2=many-variable", "C1=exact", "D2=always", "E2=always"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Vector.String() missing %q: %s", frag, s)
		}
	}
}

func TestExplainListsAllViolations(t *testing.T) {
	v := drrPaperVector()
	v.BlockTags = NoTags
	v.RecordedInfo = RecordNone
	msgs := Explain(&v)
	if len(msgs) < 2 {
		t.Errorf("Explain found %d violations, want >=2: %v", len(msgs), msgs)
	}
}

// TestPinSelectsLeaf checks the code layout through Pin: every valid code
// holds each of its vector's leaves, and no other leaf of that tree; a
// pin on a tree outside [0, NumTrees) matches every code and a pin on a
// leaf the tree does not have matches none.
func TestPinSelectsLeaf(t *testing.T) {
	for _, c := range Codes() {
		v := c.Vector()
		for i := 0; i < NumTrees; i++ {
			tree := Tree(i)
			for l := 0; l < LeafCount(tree); l++ {
				mask, want := Pin(tree, Leaf(l))
				if got := c&mask == want; got != (v.Get(tree) == Leaf(l)) {
					t.Fatalf("code %#x (%v): Pin(%v, %d) matches = %v", c, v, tree, l, got)
				}
			}
		}
	}
	c := Codes()[0]
	for _, tree := range []Tree{-1, Tree(NumTrees), 99} {
		if mask, want := Pin(tree, 1); c&mask != want {
			t.Errorf("Pin(%v, 1) excludes a code; a tree that does not exist must be ignored", tree)
		}
	}
	for _, l := range []Leaf{2, 8, 255} {
		mask, want := Pin(B1PoolDivision, l)
		for _, c := range Codes() {
			if c&mask == want {
				t.Fatalf("Pin(B1, %d) matches code %#x; B1 has no such leaf", l, c)
			}
		}
	}
}

// TestIndexAllocations pins the index's allocation behaviour: reading
// the built index allocates nothing, and building it allocates a fixed
// handful of times, not once per node or per vector.
func TestIndexAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() { SpaceSize() }); n != 0 {
		t.Errorf("SpaceSize allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(5, func() { Enumerate(func(Vector) bool { return true }) }); n != 0 {
		t.Errorf("Enumerate over the built index allocates %.0f times, want 0", n)
	}
	// The rule table, the append growth of the code slice and its final
	// exact-size copy: a few dozen allocations for 144k vectors.
	if n := testing.AllocsPerRun(2, func() { buildCodes() }); n > 64 {
		t.Errorf("building the index allocates %.0f times, want a constant <= 64", n)
	}
	if got, want := buildCodes(), Codes(); !slices.Equal(got, want) {
		t.Error("a second build differs from the shared index")
	}
}

// BenchmarkBuildCodes times the cold build of the design-space index
// and reports the bytes the built index keeps resident.
func BenchmarkBuildCodes(b *testing.B) {
	b.ReportAllocs()
	var c []Code
	for b.Loop() {
		c = buildCodes()
	}
	b.ReportMetric(float64(cap(c))*float64(unsafe.Sizeof(Code(0))), "resident-bytes")
}
