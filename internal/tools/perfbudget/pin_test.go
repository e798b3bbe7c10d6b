package main

import (
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// pinnedVersion is the toolchain prefix the committed budget was
// measured with. Tests that invoke the real compiler skip on any other
// release: inline costs and escape diagnostics drift across versions,
// and the CI gate runs on the pinned toolchain only.
const pinnedVersion = "go1.24"

// measurePinned runs the real compiler over the default hot-path
// packages, from the module root, skipping when the toolchain is not
// the pinned release.
func measurePinned(t *testing.T) *Inventory {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping compiler-driving measurement in -short mode")
	}
	v := goMajorMinor(runtime.Version())
	if v != pinnedVersion {
		t.Skipf("toolchain %s is not the pinned %s; diagnostics are not comparable", v, pinnedVersion)
	}
	// The test binary runs in internal/tools/perfbudget; diagnostics and
	// go list paths are module-root relative.
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(root)
	inv, err := measure(DefaultPkgs, v)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func facts(t *testing.T, inv *Inventory, pkg, fn string) *FuncFacts {
	t.Helper()
	p := inv.Packages[pkg]
	if p == nil {
		t.Fatalf("package %s not in inventory", pkg)
	}
	f := p.Funcs[fn]
	if f == nil {
		t.Fatalf("function %s not in %s inventory", fn, pkg)
	}
	return f
}

// TestFastPathPins pins the load-bearing fast paths: the single-compare
// heap accessors, the in-band block accessors built on them and the
// allocator bin lookups must stay inlinable and allocation-free, and every //dmm:hotloop annotation must still be
// attached to its loop. A failure here means an edit silently knocked a
// fast path off the inliner's budget or grew an escape on the per-event
// path — fix the code (or, if the cost is deliberate, re-seed the
// budget AND update this pin).
func TestFastPathPins(t *testing.T) {
	inv := measurePinned(t)

	// Simulated heap: the word accessors on the replay inner path.
	for _, fn := range []string{"(*Heap).U32", "(*Heap).PutU32", "(*Heap).Ptr", "(*Heap).PutPtr"} {
		f := facts(t, inv, "dmmkit/internal/heap", fn)
		if !f.Inline {
			t.Errorf("heap.%s no longer inlines: %s", fn, f.InlineReason)
		}
		if len(f.Escapes) != 0 {
			t.Errorf("heap.%s grew escapes: %v", fn, f.Escapes)
		}
	}

	// In-band blocks: every header, footer and free-link access of every
	// manager goes through these, several per event. Out of line, each
	// costs a call and a copy of the View.
	for _, fn := range []string{"View.SetHeader", "View.Size", "View.Used", "View.SetUsed",
		"View.PrevUsed", "View.SetPrevUsed", "View.SetPrevSize", "View.PrevSizeField",
		"View.WriteFooterSized", "View.PrevFooterSize", "View.Next", "View.Payload", "View.Block",
		"View.NextFree", "View.SetNextFree", "View.PrevFree", "View.SetPrevFree"} {
		f := facts(t, inv, "dmmkit/internal/block", fn)
		if !f.Inline {
			t.Errorf("block.%s no longer inlines: %s", fn, f.InlineReason)
		}
		if len(f.Escapes) != 0 {
			t.Errorf("block.%s grew escapes: %v", fn, f.Escapes)
		}
	}

	// Manager base: every manager's footprint accessors. Global sums the
	// atomic footprints after every Alloc and Free, and sampled replays
	// read Footprint per event, so sharing them must not add a call.
	for _, fn := range []string{"(*Base).Footprint", "(*Base).MaxFootprint"} {
		if f := facts(t, inv, "dmmkit/internal/mm", fn); !f.Inline {
			t.Errorf("mm.%s no longer inlines: %s", fn, f.InlineReason)
		}
	}

	// Kingsley: the size-class lookup and free-list head update.
	for _, fn := range []string{"classFor", "(*Manager).setFreeHead"} {
		if f := facts(t, inv, "dmmkit/internal/alloc/kingsley", fn); !f.Inline {
			t.Errorf("kingsley.%s no longer inlines: %s", fn, f.InlineReason)
		}
	}

	// Lea: the bin index computations and bin head updates.
	for _, fn := range []string{"fastIndex", "smallIndex", "largeIndex",
		"(*Manager).setFastHead", "(*Manager).setSmallHead", "(*Manager).setLargeHead"} {
		if f := facts(t, inv, "dmmkit/internal/alloc/lea", fn); !f.Inline {
			t.Errorf("lea.%s no longer inlines: %s", fn, f.InlineReason)
		}
	}

	// Annotated hot loops: the annotation must still be attached (a
	// refactor that detaches the comment silently unguards the loop),
	// and the DMMT2 batch-decode loop must stay free of bounds checks —
	// its indexing is guarded by the n < len(dst) condition alone. The
	// replay kernel's two are the dense live table's ID indexing.
	hotLoops := map[string]struct {
		pkg, fn   string
		maxBounds int
	}{
		"NextBatch": {"dmmkit/internal/trace", "(*binarySource).NextBatch", 0},
		"Apply":     {"dmmkit/internal/trace", "(*Replayer).Apply", 2},
		"bestFit":   {"dmmkit/internal/alloc/lea", "(*Manager).bestFit", 1},
	}
	for name, want := range hotLoops {
		f := facts(t, inv, want.pkg, want.fn)
		if f.HotLoops != 1 {
			t.Errorf("%s: hot_loops = %d, want 1 (//dmm:hotloop annotation detached?)", name, f.HotLoops)
		}
		if f.HotBoundsChecks > want.maxBounds {
			t.Errorf("%s: %d bounds checks in hot loop, budget is %d", name, f.HotBoundsChecks, want.maxBounds)
		}
	}

	// The DMMT2 decoder's one per-event pass: the one-byte varint reader
	// and the zigzag map must inline into it, so a field costs no call.
	// Out of line, the per-field calls were a quarter of a streamed
	// replay's CPU.
	inlined := inlinedInto(t, "dmmkit/internal/trace", "(*binarySource).decode")
	for _, fn := range []string{"byteVarint", "unzigzag"} {
		if !inlined[fn] {
			t.Errorf("trace.%s is no longer inlined into (*binarySource).decode: %s",
				fn, facts(t, inv, "dmmkit/internal/trace", fn).InlineReason)
		}
	}

	// core.Custom's fit probes: every probe of a tagged manager reads a
	// block's size from its header, so the read must inline into each
	// scan. sizeOf itself cannot inline (its untagged lookup is a call,
	// and a call alone costs 57 of the inliner's 80).
	for _, scan := range []string{"(*Custom).scanFirst", "(*Custom).scanBest",
		"(*Custom).scanWorst", "(*Custom).popDeferredExact"} {
		if !inlinedInto(t, "dmmkit/internal/core", scan)["(*Custom).headerSize"] {
			t.Errorf("core.(*Custom).headerSize is no longer inlined into %s: %s",
				scan, facts(t, inv, "dmmkit/internal/core", "(*Custom).headerSize").InlineReason)
		}
	}

	// The replay kernel's live table: the dense form's set and take must
	// inline into the kernel, with only the hashed form called out of
	// line. A prototype that called them lost 5-12% of Table 1 replay
	// throughput.
	inlined = inlinedInto(t, "dmmkit/internal/trace", "(*Replayer).Apply")
	for _, fn := range []string{"(*liveTable).set", "(*liveTable).take"} {
		if !inlined[fn] {
			t.Errorf("trace.%s is no longer inlined into (*Replayer).Apply: %s",
				fn, facts(t, inv, "dmmkit/internal/trace", fn).InlineReason)
		}
	}
}

// inlinedInto returns the callees the compiler inlines at call sites
// inside fn of package pkg. It runs from the module root, as
// measurePinned leaves the test.
func inlinedInto(t *testing.T, pkg, fn string) map[string]bool {
	t.Helper()
	dirs, err := listPackages(pkg)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := loadSrcMap(dirs, &Inventory{Packages: map[string]*PkgFacts{}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := capture("-m", []string{pkg})
	if err != nil {
		t.Fatal(err)
	}
	inlined := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		m := diagRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		callee, ok := strings.CutPrefix(m[4], "inlining call to ")
		if n, _ := strconv.Atoi(m[2]); ok && sm.funcAt(m[1], n) == fn {
			inlined[callee] = true
		}
	}
	return inlined
}

// TestBudgetMatchesTree is the gate run as a unit test: a fresh
// measurement must match the committed perf_budget.json exactly, so
// `-update` on a clean tree is a no-op. If this fails, either fix the
// regression it names or deliberately re-seed with
// `go run ./internal/tools/perfbudget -update` and review the JSON diff.
func TestBudgetMatchesTree(t *testing.T) {
	inv := measurePinned(t)
	want, err := readBudget(DefaultBudget)
	if err != nil {
		t.Fatalf("reading committed budget: %v", err)
	}
	if want.GoVersion != inv.GoVersion {
		t.Fatalf("budget pinned to %s, measured with %s", want.GoVersion, inv.GoVersion)
	}
	diffs := diffInventories(want, inv)
	if len(diffs) > 0 {
		t.Errorf("perf_budget.json drifted (%d differences):\n  %s\nif deliberate: go run ./internal/tools/perfbudget -update",
			len(diffs), strings.Join(diffs, "\n  "))
	}
}
