package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	latency    = specMetric{Name: "latency_ms.p50", Unit: "ms", Better: "lower", Bound: 0.05}
	throughput = specMetric{Name: "events_per_s", Unit: "events/s", Better: "higher", Bound: 0.05}
)

// around returns ten samples within ±1% of center.
func around(center float64) []float64 {
	offs := []float64{-1, 0.5, -0.5, 1, 0, -0.25, 0.25, 0.75, -0.75, 0}
	xs := make([]float64, len(offs))
	for i, o := range offs {
		xs[i] = center * (1 + o/100)
	}
	return xs
}

func TestJudgeVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name       string
		m          specMetric
		base, head []float64
		want       string
	}{
		{"same", latency, around(100), around(100), "within bound"},
		{"slower within bound", latency, around(100), around(104), "within bound"},
		{"slower beyond bound", latency, around(100), around(110), "regressed"},
		{"throughput drop beyond bound", throughput, around(100), around(90), "regressed"},
		{"throughput rise", throughput, around(100), around(120), "within bound"},
		{"noisy base", latency, []float64{70, 85, 100, 115, 130}, around(100), "unresolved"},
		{"noisy head", latency, around(100), []float64{70, 85, 100, 115, 130}, "unresolved"},
		{"noisy but every head run better", latency, []float64{100, 120, 140, 160}, []float64{50, 60, 75, 90}, "improved"},
		{"no bound", specMetric{Name: "x", Better: "lower"}, around(100), around(200), "no bound"},
	} {
		if got := judge(tc.m, tc.base, tc.head).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestJudgeWorseIsSignedByDirection(t *testing.T) {
	if w := judge(latency, around(100), around(110)).worse; w < 0.09 || w > 0.11 {
		t.Errorf("latency 100 → 110: worse by %g, want 0.1", w)
	}
	if w := judge(throughput, around(100), around(110)).worse; w > -0.09 || w < -0.11 {
		t.Errorf("throughput 100 → 110: worse by %g, want -0.1", w)
	}
}

func TestGainRule(t *testing.T) {
	base := around(100) // IQR ≈ 1.2
	for _, tc := range []struct {
		name string
		head []float64
		want bool
	}{
		{"wins every pair by more than the IQR", around(95), true},
		{"wins 9 of 10", func() []float64 { h := around(95); h[3] = 200; return h }(), true},
		{"wins 8 of 10", func() []float64 { h := around(95); h[3], h[4] = 200, 200; return h }(), false},
		{"wins every pair, by less than the IQR", around(99.5), false},
		{"only nine pairs", around(95)[:9], false},
		{"slower", around(105), false},
	} {
		if got := judge(latency, base, tc.head).gain; got != tc.want {
			v := judge(latency, base, tc.head)
			t.Errorf("%s: gain %v (%d/%d wins, medians %g vs %g), want %v", tc.name, got, v.wins, v.pairs, v.base[1], v.hd[1], tc.want)
		}
	}
}

func writeRun(t *testing.T, dir, name, workload string, value float64) {
	t.Helper()
	out := fmt.Sprintf("env {\"workload\":%q,\"seed\":1}\nmetric latency_ms.p50 %v ms n=1\n"+
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_ms.p50":{"value":%v,"unit":"ms"}}}`+"\n",
		workload, value, value)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadRunsAndCompare(t *testing.T) {
	base, head := t.TempDir(), t.TempDir()
	for i, v := range around(100) {
		writeRun(t, base, fmt.Sprintf("run%02d", i), "table1", v)
		writeRun(t, head, fmt.Sprintf("run%02d", i), "table1", v*1.2)
	}
	runs, err := readRuns(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 10 || runs[0].workload != "table1" || runs[0].metrics["latency_ms.p50"] != around(100)[0] {
		t.Fatalf("readRuns: %d runs, first %+v", len(runs), runs[0])
	}
	hruns, err := readRuns(head)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if status := writeComparison(&sb, []specMetric{latency}, runs, hruns); status != 1 {
		t.Errorf("a 20%% slower head: status %d, want 1\n%s", status, sb.String())
	}
	if !strings.Contains(sb.String(), "regressed") {
		t.Errorf("no regressed verdict in\n%s", sb.String())
	}
	sb.Reset()
	if status := writeComparison(&sb, []specMetric{latency}, runs, runs); status != 0 {
		t.Errorf("a run set against itself: status %d, want 0\n%s", status, sb.String())
	}
}

func TestReadRunRejectsOutputWithoutEnvOrResult(t *testing.T) {
	dir := t.TempDir()
	noEnv := filepath.Join(dir, "noenv")
	if err := os.WriteFile(noEnv, []byte(`{"correct":true,"attempted":1,"failed":0,"metrics":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRun(noEnv); err == nil {
		t.Error("output without an env line was accepted")
	}
	noResult := filepath.Join(dir, "noresult")
	if err := os.WriteFile(noResult, []byte("env {\"workload\":\"serve\"}\nbench: setup failed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRun(noResult); err == nil {
		t.Error("output without a result line was accepted")
	}
}
