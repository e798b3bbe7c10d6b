// Command perfbudget is the static performance gate: it asks the Go
// compiler what it actually did to the hot-path packages — which
// functions inline (and why not), which values escape to the heap,
// which bounds checks survive inside //dmm:hotloop-annotated loops —
// and diffs that inventory against the committed perf_budget.json.
//
// The compiler is the oracle: `-gcflags=-m=2` for inline and escape
// decisions, `-gcflags=-d=ssa/check_bce/debug=1` for bounds checks.
// Sites are keyed symbolically (package, function, the compiler's own
// message text), never by line number, so reordering code without
// changing its performance shape does not churn the budget. An escape
// that appears on a fast path, a function that falls out of the
// inliner's budget, a hot loop that regrows a bounds check — each shows
// up as a diff, exits non-zero, and names the function and fact that
// moved.
//
// Compiler diagnostics are not stable across Go releases, so the
// budget records the toolchain's major.minor prefix and the gate only
// compares like with like; CI pins the version. After a deliberate
// change (or a toolchain bump), regenerate with -update and review the
// budget diff like any other golden.
//
// Usage (from the module root):
//
//	go run ./internal/tools/perfbudget              # gate: diff against perf_budget.json
//	go run ./internal/tools/perfbudget -update      # regenerate the budget
//	go run ./internal/tools/perfbudget -diff got.json  # also dump the measured inventory
//
// Exit status: 0 when the inventory matches the budget, 1 on any
// drift (or toolchain mismatch), 2 on operational errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
)

// DefaultPkgs is the hot-path surface under budget: the simulated heap,
// the in-band block accessors, the allocator implementations, the cost
// model, the trace codec, and the replay engine — everything on the
// per-event path of an exploration run, plus the core config types they
// share.
const DefaultPkgs = "dmmkit/internal/heap,dmmkit/internal/block,dmmkit/internal/mm,dmmkit/internal/bitset,dmmkit/internal/alloc/...,dmmkit/internal/trace,dmmkit/internal/core"

// DefaultBudget is the committed golden at the module root.
const DefaultBudget = "perf_budget.json"

func main() {
	update := flag.Bool("update", false, "rewrite the budget file from a fresh measurement instead of gating")
	budgetPath := flag.String("budget", DefaultBudget, "path of the committed budget golden")
	pkgsFlag := flag.String("pkgs", DefaultPkgs, "comma-separated package patterns to measure")
	diffOut := flag.String("diff", "", "also write the freshly measured inventory JSON to this path (CI failure artifact)")
	flag.Parse()

	got, err := measure(*pkgsFlag, goMajorMinor(runtime.Version()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbudget:", err)
		os.Exit(2)
	}
	if *diffOut != "" {
		if err := writeBudget(*diffOut, got); err != nil {
			fmt.Fprintln(os.Stderr, "perfbudget:", err)
			os.Exit(2)
		}
	}
	if *update {
		if err := writeBudget(*budgetPath, got); err != nil {
			fmt.Fprintln(os.Stderr, "perfbudget:", err)
			os.Exit(2)
		}
		fmt.Printf("perfbudget: wrote %s (%d packages, %d functions, %s)\n",
			*budgetPath, len(got.Packages), countFuncs(got), got.GoVersion)
		return
	}
	want, err := readBudget(*budgetPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbudget: %v (seed it with -update)\n", err)
		os.Exit(2)
	}
	if want.GoVersion != got.GoVersion {
		fmt.Fprintf(os.Stderr, "perfbudget: budget was measured with %s, this toolchain is %s; compiler diagnostics are not comparable across releases — rerun with the pinned toolchain or regenerate with -update\n",
			want.GoVersion, got.GoVersion)
		os.Exit(1)
	}
	diffs := diffInventories(want, got)
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbudget: inventory drifted from %s (%d differences):\n", *budgetPath, len(diffs))
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "  "+d)
		}
		fmt.Fprintln(os.Stderr, "if the change is deliberate, regenerate with: go run ./internal/tools/perfbudget -update")
		os.Exit(1)
	}
	fmt.Printf("perfbudget: ok (%d packages, %d functions, %s)\n",
		len(got.Packages), countFuncs(got), got.GoVersion)
}

var goVersionRE = regexp.MustCompile(`^go\d+\.\d+`)

// goMajorMinor truncates runtime.Version() to its major.minor prefix
// ("go1.24.0" -> "go1.24"); patch releases share diagnostics.
func goMajorMinor(v string) string {
	if m := goVersionRE.FindString(v); m != "" {
		return m
	}
	return v
}

func countFuncs(inv *Inventory) int {
	n := 0
	for _, p := range inv.Packages {
		n += len(p.Funcs)
	}
	return n
}

func readBudget(path string) (*Inventory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var inv Inventory
	if err := json.Unmarshal(data, &inv); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &inv, nil
}

func writeBudget(path string, inv *Inventory) error {
	data, err := json.MarshalIndent(inv, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// diffInventories reports every fact present in exactly one side or
// differing between the two, one human-readable line per fact, sorted.
// The gate is exact in both directions: an improvement (an escape gone,
// a function newly inlinable) also diffs, so the budget is regenerated
// and the win is recorded rather than silently absorbed.
func diffInventories(want, got *Inventory) []string {
	var diffs []string
	for _, pkg := range unionKeys(want.Packages, got.Packages) {
		wp, gp := want.Packages[pkg], got.Packages[pkg]
		switch {
		case wp == nil:
			diffs = append(diffs, fmt.Sprintf("%s: package not in budget", pkg))
			continue
		case gp == nil:
			diffs = append(diffs, fmt.Sprintf("%s: package in budget but not measured", pkg))
			continue
		}
		for _, fn := range unionKeys(wp.Funcs, gp.Funcs) {
			wf, gf := wp.Funcs[fn], gp.Funcs[fn]
			switch {
			case wf == nil:
				diffs = append(diffs, fmt.Sprintf("%s: %s: new function, not in budget", pkg, fn))
				continue
			case gf == nil:
				diffs = append(diffs, fmt.Sprintf("%s: %s: in budget but no longer measured", pkg, fn))
				continue
			}
			diffs = append(diffs, diffFunc(pkg, fn, wf, gf)...)
		}
	}
	sort.Strings(diffs)
	return diffs
}

func diffFunc(pkg, fn string, want, got *FuncFacts) []string {
	var diffs []string
	if want.Inline != got.Inline {
		reason := got.InlineReason
		if got.Inline {
			reason = "now inlinable"
		}
		diffs = append(diffs, fmt.Sprintf("%s: %s: inline %v -> %v (%s)", pkg, fn, want.Inline, got.Inline, reason))
	} else if want.InlineReason != got.InlineReason {
		diffs = append(diffs, fmt.Sprintf("%s: %s: cannot-inline reason %q -> %q", pkg, fn, want.InlineReason, got.InlineReason))
	}
	for _, site := range unionKeys(want.Escapes, got.Escapes) {
		w, g := want.Escapes[site], got.Escapes[site]
		if w != g {
			diffs = append(diffs, fmt.Sprintf("%s: %s: escape %q: %d -> %d", pkg, fn, site, w, g))
		}
	}
	if want.HotLoops != got.HotLoops {
		diffs = append(diffs, fmt.Sprintf("%s: %s: hot loops %d -> %d", pkg, fn, want.HotLoops, got.HotLoops))
	}
	if want.HotBoundsChecks != got.HotBoundsChecks {
		diffs = append(diffs, fmt.Sprintf("%s: %s: hot-loop bounds checks %d -> %d", pkg, fn, want.HotBoundsChecks, got.HotBoundsChecks))
	}
	return diffs
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	return sortedKeys(seen)
}
