package search

import (
	"math"
	"os"
	"os/exec"
	"slices"
	"sync"
	"testing"

	"dmmkit/internal/dspace"
)

// matching is the pinned subspace in enumeration order, found the slow
// way: every valid vector through Matches.
func matching(fix Fixed) []dspace.Vector {
	var out []dspace.Vector
	dspace.Enumerate(func(v dspace.Vector) bool {
		if fix.Matches(v) {
			out = append(out, v)
		}
		return true
	})
	return out
}

// TestPatternAgreesWithMatches checks the packed form of every golden
// subspace against Matches, vector by vector.
func TestPatternAgreesWithMatches(t *testing.T) {
	for _, f := range spaceFixes() {
		mask, want := f.fix.pattern()
		for _, c := range dspace.Codes() {
			v := c.Vector()
			if got := c&mask == want; got != f.fix.Matches(v) {
				t.Fatalf("%s: pattern says %v for %v, Matches says %v", f.name, got, v, !got)
			}
		}
	}
}

// TestSampleHugeCap asks for more samples than any subspace holds, up to
// math.MaxInt: the whole subspace comes back, in order. The ceiling
// stride once overflowed to zero for such caps and the pinned path
// panicked with an integer divide by zero.
func TestSampleHugeCap(t *testing.T) {
	for _, fix := range []Fixed{nil, {dspace.B1PoolDivision: dspace.PoolPerClass}} {
		want := matching(fix)
		for _, max := range []int{math.MaxInt, math.MaxInt - 1, math.MaxInt/2 + 1, len(want)} {
			if got := Sample(max, fix); !slices.Equal(got, want) {
				t.Errorf("Sample(%d, %v): %d vectors, want the whole subspace of %d", max, fix, len(got), len(want))
			}
		}
	}
}

// TestSampleAllocations pins the cost of sampling once the index is
// built: Sample allocates only its result and Size nothing, pinned or
// not.
func TestSampleAllocations(t *testing.T) {
	Size(nil) // build the index
	for _, fix := range []Fixed{nil, {dspace.B1PoolDivision: dspace.PoolPerClass, dspace.C2FreeOrder: dspace.AddressOrder}} {
		if n := testing.AllocsPerRun(10, func() { Sample(12, fix) }); n != 1 {
			t.Errorf("Sample(12, %v) allocates %.0f times, want 1", fix, n)
		}
		if n := testing.AllocsPerRun(10, func() { Size(fix) }); n != 0 {
			t.Errorf("Size(%v) allocates %.0f times, want 0", fix, n)
		}
	}
}

// coldIndexEnv marks the fresh process TestIndexConcurrentFirstUse runs
// its check in.
const coldIndexEnv = "DMMKIT_SEARCH_COLD_INDEX"

// TestIndexConcurrentFirstUse has several goroutines reach the lazily
// built design-space index at once, through Sample, Size and Enumerate,
// as a server's first explore jobs do, and checks every result against
// the design-space golden. Earlier tests in this process have built the
// index already, so the check also runs in a fresh process of this test
// binary, where its goroutines are the index's first users.
func TestIndexConcurrentFirstUse(t *testing.T) {
	want := readSpaceGolden(t)
	if os.Getenv(coldIndexEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestIndexConcurrentFirstUse$", "-test.count=1", "-test.timeout=5m")
		cmd.Env = append(os.Environ(), coldIndexEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("check in a fresh process: %v\n%s", err, out)
		}
	}
	// spaceFixes samples the space itself, so each goroutine derives
	// its own copy rather than this one building the index first.
	var wg sync.WaitGroup
	wg.Add(1 + len(want.Fixes))
	go func() {
		defer wg.Done()
		if n, digest := enumerateDigest(); n != want.Count || digest != want.Enumerate {
			t.Errorf("Enumerate: %d vectors digest %s, want %d digest %s", n, digest, want.Count, want.Enumerate)
		}
	}()
	for i := range len(want.Fixes) {
		go func() {
			defer wg.Done()
			f := spaceFixes()[i]
			if got := fixDigest(f.fix); got != want.Fixes[f.name] {
				t.Errorf("%s: Size %d samples %s, want %+v", f.name, got.Size, got.Samples, want.Fixes[f.name])
			}
		}()
	}
	wg.Wait()
}
