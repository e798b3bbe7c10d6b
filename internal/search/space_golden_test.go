package search

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dmmkit/internal/dspace"
)

// spaceFix is one pinned subspace the design-space golden covers.
type spaceFix struct {
	name string
	fix  Fixed
}

// spaceFixes are the subspaces TestDesignSpaceGolden pins: the whole
// space, the search golden's and the Pareto experiment's pins, a
// subspace of a few vectors, an empty one, and the two kinds of pin that
// Matches treats specially (a leaf the tree does not have, which empties
// the subspace, and a tree outside [0, NumTrees), which is ignored).
func spaceFixes() []spaceFix {
	few := Fixed{}
	base := Sample(1, nil)[0]
	for i := 0; i < dspace.NumTrees; i++ {
		if tr := dspace.Tree(i); tr != dspace.C2FreeOrder {
			few[tr] = base.Get(tr)
		}
	}
	return []spaceFix{
		{"nil", nil},
		{"pool-per-class+address-order", Fixed{dspace.B1PoolDivision: dspace.PoolPerClass, dspace.C2FreeOrder: dspace.AddressOrder}},
		// The six pins of the Pareto experiment's oracle subspace
		// (experiments.paretoFix).
		{"pareto", Fixed{
			dspace.A1BlockStructure: dspace.SinglyLinked,
			dspace.A2BlockSizes:     dspace.ManyVarSizes,
			dspace.A3BlockTags:      dspace.HeaderTag,
			dspace.B1PoolDivision:   dspace.SinglePool,
			dspace.B3PoolPhase:      dspace.SharedPools,
			dspace.C2FreeOrder:      dspace.LIFOOrder,
		}},
		// TestNSGASingletonSubspace's subspace: every tree of the first
		// valid vector pinned except the free-list order.
		{"few", few},
		{"empty", Fixed{dspace.A2BlockSizes: dspace.OneBlockSize, dspace.A5FlexBlockSize: dspace.SplitCoalesce}},
		// Leaf 8 is out of range for B1 (two leaves) and equals
		// SinglePool in its low three bits.
		{"leaf-out-of-range", Fixed{dspace.B1PoolDivision: 8}},
		{"tree-out-of-range", Fixed{dspace.Tree(99): dspace.PoolPerClass}},
	}
}

// spaceGolden is what testdata/golden_space.json pins.
type spaceGolden struct {
	Count int `json:"count"`
	// Enumerate is the SHA-256 of every vector Enumerate yields, each as
	// its leaves in tree order.
	Enumerate string `json:"enumerate"`
	// Fixes maps a spaceFixes name to its Size and to one SHA-256 over
	// Sample(k, fix) for k = 1..maxSampleCap (see proposalDigest).
	Fixes map[string]fixGolden `json:"fixes"`
}

type fixGolden struct {
	Size    int    `json:"size"`
	Samples string `json:"samples"`
}

const maxSampleCap = 512

func enumerateDigest() (int, string) {
	h := sha256.New()
	n := dspace.Enumerate(func(v dspace.Vector) bool {
		s := vectorToState(v)
		h.Write(s[:])
		return true
	})
	return n, hex.EncodeToString(h.Sum(nil))
}

func fixDigest(fix Fixed) fixGolden {
	d := newProposalDigest()
	for k := 1; k <= maxSampleCap; k++ {
		d.add(Sample(k, fix))
	}
	return fixGolden{Size: Size(fix), Samples: d.sum()}
}

func readSpaceGolden(t testing.TB) spaceGolden {
	t.Helper()
	path := filepath.Join("testdata", "golden_space.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run TestDesignSpaceGolden with -update to create it)", err)
	}
	var want spaceGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	return want
}

// TestDesignSpaceGolden is the drift guard for the valid design space
// and its samplers: the number of valid vectors, the whole Enumerate
// stream in order, and for every pinned subspace of spaceFixes its Size
// and the Sample at every cap from 1 to 512 must match
// testdata/golden_space.json. The GA and NSGA seed generations, the
// exhaustive strategy and every explore job start from these samples.
// Regenerate (-update) only for a deliberate change to the constraint
// tables or the traversal order.
func TestDesignSpaceGolden(t *testing.T) {
	got := spaceGolden{Fixes: make(map[string]fixGolden)}
	got.Count, got.Enumerate = enumerateDigest()
	for _, f := range spaceFixes() {
		got.Fixes[f.name] = fixDigest(f.fix)
	}
	if *updateSearchGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden_space.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want := readSpaceGolden(t)
	if got.Count != want.Count || got.Enumerate != want.Enumerate {
		t.Errorf("Enumerate: %d vectors digest %s, want %d digest %s", got.Count, got.Enumerate, want.Count, want.Enumerate)
	}
	if n := dspace.SpaceSize(); n != want.Count {
		t.Errorf("SpaceSize() = %d, want %d", n, want.Count)
	}
	for _, f := range spaceFixes() {
		w, ok := want.Fixes[f.name]
		if !ok {
			t.Errorf("golden has no record for %s", f.name)
			continue
		}
		if g := got.Fixes[f.name]; g != w {
			t.Errorf("%s: Size %d samples %s, want Size %d samples %s", f.name, g.Size, g.Samples, w.Size, w.Samples)
		}
	}
	if len(want.Fixes) != len(got.Fixes) {
		t.Errorf("golden has %d subspaces, the test %d", len(want.Fixes), len(got.Fixes))
	}
}
