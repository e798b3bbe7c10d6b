package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"dmmkit/internal/experiments"
	"dmmkit/internal/netsim"
	"dmmkit/internal/search"
	"dmmkit/internal/trace"
)

// smokeSizes shrink every workload to a few seconds of checked work:
// one round, explorations of four candidates, two sessions.
var smokeSizes = sizes{
	streamNet:    netsim.Config{Phases: 4, PhaseMs: 250},
	streamEvents: 20_000,

	exploreTraces: 1,
	exploreEvents: 5_000,
	exploreGA:     search.GAConfig{Population: 4, Generations: 1, MaxEvaluations: 4},

	serveTraces: 2,
	serveEvents: 5_000,
	serveGA:     search.GAConfig{Population: 4, Generations: 1, MaxEvaluations: 4},
	serveRate:   20, // two sessions in the 0.1 s window
}

func smokeConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload, seed: 1, seconds: 0.1, trace: traced,
		root: "..", out: t.TempDir(), setups: 1, size: smokeSizes,
	}
}

// specNames returns the metric names BENCHMARK.json lists under key.
func specNames(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []specMetric
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// checkReport requires a correct run whose metrics are exactly the named
// ones, each a finite number, and whose last output line is the result.
func checkReport(t *testing.T, rp *report, want []string) {
	t.Helper()
	if !rp.correct || rp.attempted == 0 || rp.failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%v", rp.correct, rp.attempted, rp.failed, rp.lines)
	}
	if got := sortedKeys(rp.metrics); !slices.Equal(got, want) {
		t.Errorf("metrics %v, want %v", got, want)
	}
	for name, m := range rp.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %g", name, m.Value)
		}
	}
	var buf bytes.Buffer
	if err := rp.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var last map[string]any
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || len(last) != 4 {
		t.Errorf("last line %s is not the four-key result object (%v)", lines[len(lines)-1], err)
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	want := specNames(t, "end_to_end")
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			rp, err := run(context.Background(), smokeConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rp, want)
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	cfg := smokeConfig(t, "explore", true)
	rp, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rp, specNames(t, "per_layer"))
	data, err := os.ReadFile(filepath.Join(cfg.out, "spans-explore.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, s := range spans.Spans {
		count[s.Name]++
	}
	if count["core.eval"] == 0 || count["search.Next"] == 0 {
		t.Errorf("spans file lacks candidate or search spans: %v", count)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	const ms = 1e6 // span bounds are in ns
	spans := []span{
		{Name: "explore", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "eval", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "eval", Start: 30 * ms, End: 60 * ms, Parent: 0},  // overlaps the first
		{Name: "eval", Start: 90 * ms, End: 120 * ms, Parent: 0}, // runs past its parent
	}
	self := selfTimes(spans)
	if self["explore"] != 40 || self["eval"] != 90 {
		t.Errorf("self times %v, want explore 40 ms and eval 90 ms", self)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := run(context.Background(), smokeConfig(t, "nope", false)); err == nil {
		t.Error("an unknown workload ran")
	}
}

func TestNullManagerReplaysQuickTraces(t *testing.T) {
	for _, w := range experiments.Workloads {
		tr, err := experiments.BuildWorkloadTrace(w, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := trace.Run(context.Background(), &nullManager{}, tr, trace.RunOpts{})
		if err != nil || res.Events != len(tr.Events) {
			t.Errorf("%s in memory: %d of %d events, %v", w, res.Events, len(tr.Events), err)
		}
		path := filepath.Join(t.TempDir(), "t.dmmt2")
		if _, err := writeTrace(path, tr); err != nil {
			t.Fatal(err)
		}
		f, err := trace.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		res, err = trace.RunSource(context.Background(), &nullManager{}, src, trace.RunOpts{})
		if err != nil || res.Events != len(tr.Events) {
			t.Errorf("%s streamed: %d of %d events, %v", w, res.Events, len(tr.Events), err)
		}
	}
}
