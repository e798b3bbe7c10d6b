// Command bench is dmmkit's benchmark. It drives the simulator's layers
// from outside, through their public functions, on four workloads, and
// prints every metric by name with its unit and sample count:
//
//	bash bench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1                  # every workload, each in its own process
//	bash bench/run.sh compare -base A -head B   # judge two sets of run outputs
//
// The last line of a single-workload run is one JSON object: whether every
// policy output checked out, how many operations were attempted and
// failed, and the metrics — the end-to-end ones, or with --trace 1 the
// per-layer ones. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order an all-workloads run
// takes them.
var workloadNames = []string{"table1", "stream", "explore", "serve"}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measurement window
	trace    bool    // traced run: per-layer metrics and a spans file
	root     string  // repository root, where the golden table is read
	out      string  // where spans files and the run's scratch inputs go
	setups   int     // set-ups timed for setup_s (the last one is kept)
	size     sizes
}

// workload is one set of generated inputs and the operations timed on it.
type workload interface {
	// setup generates the inputs under dir and runs one untimed warm-up
	// operation. It may be called again; each call replaces the inputs.
	setup(ctx context.Context, dir string) (setupTimes, error)
	// measure runs timed operations until the window has passed (closed
	// loops finish the round in flight; the open loop sends what its
	// schedule holds). rec is non-nil in a traced run; the workload then
	// records spans on every other round or session only, so the same run
	// also measures the tracing overhead.
	measure(ctx context.Context, window time.Duration, rec *recorder) (*result, error)
	// check verifies the policy output of every timed operation against an
	// independent reference, counting each mismatch in res.failed.
	check(ctx context.Context, res *result) error
	// files returns the DMMT2 inputs the layer suite measures.
	files() []string
	close() error
}

// setupTimes splits one set-up into its parts.
type setupTimes struct {
	tracegen, encode time.Duration
}

// result is what a workload's timed operations produced.
type result struct {
	op        string    // what one latency sample is
	rates     []float64 // simulated trace events per second, per round (serve: over all jobs)
	latency   []float64 // per operation, ms; +Inf for a failed operation
	traced    []bool    // per latency sample: recorded with spans on
	attempted int
	failed    int
	checks    []string // one line per output check
	notes     []string // workload-specific lines (lateness, layer numbers from spans)
}

func (r *result) sample(ms float64, traced bool) {
	r.latency = append(r.latency, ms)
	r.traced = append(r.traced, traced)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full output of one single-workload run.
type report struct {
	lines     []string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
}

func (rp *report) printf(format string, args ...any) {
	rp.lines = append(rp.lines, fmt.Sprintf(format, args...))
}

// add records a metric and prints its line with the sample count.
func (rp *report) add(name string, v float64, unit string, n int, note string) {
	if math.IsInf(v, 1) {
		// A failed sample decided the value; JSON has no infinity.
		v = math.MaxFloat64
	}
	rp.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = " (" + note + ")"
	}
	rp.printf("metric %s %.6g %s n=%d%s", name, v, unit, n, note)
}

func (rp *report) write(w io.Writer) error {
	for _, l := range rp.lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	data, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rp.correct, rp.attempted, rp.failed, rp.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "table1":
		return &table1{seed: cfg.seed, root: cfg.root}, nil
	case "stream":
		return &stream{seed: cfg.seed, sz: cfg.size}, nil
	case "explore":
		return &explore{seed: cfg.seed, sz: cfg.size}, nil
	case "serve":
		return &serve{seed: cfg.seed, sz: cfg.size}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// run executes one workload: timed set-ups, the measurement window, the
// output checks and, for a traced run, the layer suite.
func run(ctx context.Context, cfg config) (*report, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(cfg.out, fmt.Sprintf("work-%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(work)
	defer w.close()

	rp := &report{metrics: make(map[string]metric)}
	rp.printf("env %s", envLine(cfg))

	var setups, gens, encs []float64
	for i := 0; i < max(1, cfg.setups); i++ {
		runtime.GC()
		dir := filepath.Join(work, fmt.Sprint(i))
		t0 := time.Now()
		st, err := w.setup(ctx, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, ms(st.tracegen))
		encs = append(encs, ms(st.encode))
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(work, fmt.Sprint(i-1))); err != nil {
				return nil, err
			}
		}
	}
	// Set-up garbage goes back to the OS, so the resident set below is the
	// timed operations' own.
	debug.FreeOSMemory()
	sampler := startRSS()

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	res, err := w.measure(ctx, window, rec)
	rss := sampler.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := w.check(ctx, res); err != nil {
		return nil, fmt.Errorf("%s: check: %w", cfg.workload, err)
	}
	rp.attempted, rp.failed = res.attempted, res.failed
	rp.correct = res.failed == 0 && res.attempted > 0
	rp.lines = append(rp.lines, res.checks...)
	rp.lines = append(rp.lines, res.notes...)

	if !cfg.trace {
		rp.add("setup_s", median(setups), "s", len(setups), "median set-up incl. warm-up")
		// Other tenants of the host only ever slow a round down, so the
		// faster rounds measure the code; the upper quartile of the rates
		// keeps a quarter of the rounds above it against outliers.
		_, _, q3 := quartiles(res.rates)
		rp.add("events_per_s", q3, "events/s", len(res.rates), "simulated trace events per host second; upper quartile of per-round rates, serve: over all jobs")
		rp.add("latency_ms.p50", median(res.latency), "ms", len(res.latency), res.op)
		v, p := p90(res.latency)
		rp.add("latency_ms.p90", v, "ms", len(res.latency), fmt.Sprintf("%s; reported percentile p%d", res.op, p))
		rp.add("rss_mb.p99", rss.p99, "MiB", rss.samples, "resident set, sampled every 5 ms while timed operations ran")
		// Not a tracked metric: it is 0 on every good run. The JSON's
		// attempted and failed fields carry it.
		rp.printf("info failed_frac %.6g ratio n=%d", float64(res.failed)/float64(max(1, res.attempted)), res.attempted)
		return rp, nil
	}

	rp.add("setup.tracegen_ms", median(gens), "ms", len(gens), "")
	rp.add("setup.encode_ms", median(encs), "ms", len(encs), "")
	var on, off []float64
	for i, ms := range res.latency {
		if res.traced[i] {
			on = append(on, ms)
		} else {
			off = append(off, ms)
		}
	}
	rp.add("bench.trace_overhead", median(on)/median(off), "ratio", len(res.latency),
		fmt.Sprintf("median %s latency traced %d ÷ untraced %d", res.op, len(on), len(off)))
	if err := layerSuite(ctx, w.files(), rp); err != nil {
		return nil, fmt.Errorf("%s: layers: %w", cfg.workload, err)
	}
	spans := rec.all()
	path, err := writeSpans(cfg.out, cfg.workload, cfg.seed, spans)
	if err != nil {
		return nil, err
	}
	rp.printf("spans %d written to %s", len(spans), path)
	self := selfTimes(spans)
	for _, name := range sortedKeys(self) {
		rp.printf("self_ms %s %.3f", name, self[name])
	}
	return rp, nil
}

// tailLine prints the p90 of xs — or the median, where fewer than ten
// samples lie beyond the p90 — saying which it is.
func tailLine(label string, xs []float64, unit string) string {
	v, p := p90(xs)
	return fmt.Sprintf("%s %.4g %s n=%d (reported percentile p%d)", label, v, unit, len(xs), p)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// envLine records what the numbers were measured on.
func envLine(cfg config) string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	data, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "revision": rev,
	})
	return string(data)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" (empty: every workload, each in its own process)")
	seed := fs.Int64("seed", 1, "seed generating every input: traces and the serve arrival schedule")
	seconds := fs.Float64("seconds", 15, "measurement window per run, in seconds")
	traced := fs.Int("trace", 0, "1: traced run, printing per-layer metrics and writing bench-out/spans-<workload>.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(runAll(os.Args[1:]))
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1,
		root: ".", out: "bench-out", setups: 3, size: fullSizes,
	}
	rp, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := rp.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rp.correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed their output check\n", rp.failed, rp.attempted)
		os.Exit(1)
	}
}

// runAll runs every workload in its own process, so each one's peak
// memory and warm caches are its own, passing the other flags through.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames {
		fmt.Printf("== %s\n", name)
		// Last, so that it overrides an empty -workload among args.
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}
