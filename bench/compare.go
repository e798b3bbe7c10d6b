package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// specPath is the benchmark definition, relative to the repository root,
// where run.sh runs the benchmark: the metrics' directions and bounds.
const specPath = "BENCHMARK.json"

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runOutput is what compare needs from one saved run: its workload, from
// the env line, and its metrics, from the final JSON line.
type runOutput struct {
	workload string
	metrics  map[string]float64
}

// verdict is compare's judgement of one (workload, metric) pair.
type verdict struct {
	verdict   string  // within bound, regressed, unresolved, improved, or no bound
	worse     float64 // how much worse the head's median is, as a share of the base's
	gain      bool    // the gain rule holds
	wins      int     // pairs in which the head read better
	pairs     int
	base, hd  [3]float64 // first quartile, median, third quartile
	nBase, nH int
}

// judge compares the runs of a parent (base) and a change (head) of one
// metric on one workload. Samples pair up in the order given.
//
// The verdict: if either side's spread (IQR ÷ median) exceeds the bound,
// the pair is unresolved — unless every head run reads better than every
// base run, which is an improvement. Otherwise it regressed when the
// head's median is worse than the base's by more than the bound.
//
// The gain rule: at least ten pairs, the head wins at least nine in ten
// of them (ties count for neither), and the medians differ in the head's
// favour by more than the base's interquartile range.
func judge(m specMetric, base, head []float64) verdict {
	v := verdict{nBase: len(base), nH: len(head)}
	v.base[0], v.base[1], v.base[2] = quartiles(base)
	v.hd[0], v.hd[1], v.hd[2] = quartiles(head)
	lower := m.Better == "lower"
	better := func(h, b float64) bool {
		if lower {
			return h < b
		}
		return h > b
	}
	v.worse = (v.hd[1] - v.base[1]) / math.Abs(v.base[1])
	if !lower {
		v.worse = -v.worse
	}
	v.pairs = min(len(base), len(head))
	for i := 0; i < v.pairs; i++ {
		if better(head[i], base[i]) {
			v.wins++
		}
	}
	v.gain = v.pairs >= 10 && v.wins*10 >= 9*v.pairs &&
		better(v.hd[1], v.base[1]) && math.Abs(v.hd[1]-v.base[1]) > v.base[2]-v.base[0]

	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case m.Bound <= 0:
		v.verdict = "no bound"
	case spread(base) > m.Bound || spread(head) > m.Bound:
		v.verdict = "unresolved"
		if allBetter {
			v.verdict = "improved"
		}
	case v.worse > m.Bound:
		v.verdict = "regressed"
	default:
		v.verdict = "within bound"
	}
	return v
}

// readRuns reads every saved run output in dir, in file-name order.
func readRuns(dir string) ([]runOutput, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runOutput
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		r, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func readRun(path string) (runOutput, error) {
	var r runOutput
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer func() { _ = f.Close() }() // read path: the scan's errors are the ones that matter
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var last string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if env, ok := strings.CutPrefix(line, "env "); ok {
			var e struct {
				Workload string `json:"workload"`
			}
			if err := json.Unmarshal([]byte(env), &e); err != nil {
				return r, fmt.Errorf("%s: env line: %w", path, err)
			}
			r.workload = e.Workload
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	var out struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return r, fmt.Errorf("%s: last line is not the result object: %w", path, err)
	}
	if r.workload == "" {
		return r, fmt.Errorf("%s: no env line naming the workload", path)
	}
	r.metrics = make(map[string]float64, len(out.Metrics))
	for name, m := range out.Metrics {
		r.metrics[name] = m.Value
	}
	return r, nil
}

// compareMain is the compare subcommand: it reads two directories of
// saved run outputs (one run's standard output per file) and prints, for
// every (workload, metric) pair, each side's median and quartiles and a
// verdict against the bound in BENCHMARK.json. It exits 1 when any pair
// regressed or is unresolved.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseDir := fs.String("base", "", "directory of the parent's run outputs")
	headDir := fs.String("head", "", "directory of the change's run outputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseDir == "" || *headDir == "" {
		fmt.Fprintln(stderr, "compare: -base and -head are required")
		return 2
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(stderr, "compare:", specPath+":", err)
		return 2
	}
	base, err := readRuns(*baseDir)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	head, err := readRuns(*headDir)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	return writeComparison(stdout, append(spec.EndToEnd, spec.PerLayer...), base, head)
}

// writeComparison prints the table and returns the exit status.
func writeComparison(w io.Writer, metrics []specMetric, base, head []runOutput) int {
	values := func(runs []runOutput, workload, metric string) []float64 {
		var vs []float64
		for _, r := range runs {
			if v, ok := r.metrics[metric]; ok && r.workload == workload {
				vs = append(vs, v)
			}
		}
		return vs
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]runOutput(nil), base...), head...) {
		workloads[r.workload] = true
	}
	names := sortedKeys(workloads)

	status := 0
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3] n\thead median [q1, q3] n\tworse by\tbound\tverdict\tgain rule")
	for _, wl := range names {
		for _, m := range metrics {
			b, h := values(base, wl, m.Name), values(head, wl, m.Name)
			if len(b) == 0 && len(h) == 0 {
				continue
			}
			v := judge(m, b, h)
			if v.verdict == "regressed" || v.verdict == "unresolved" {
				status = 1
			}
			gain := fmt.Sprintf("no (%d/%d wins)", v.wins, v.pairs)
			if v.gain {
				gain = fmt.Sprintf("yes (%d/%d wins)", v.wins, v.pairs)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%+.1f%%\t%g\t%s\t%s\n",
				wl, m.Name, v.base[1], v.base[0], v.base[2], v.nBase, v.hd[1], v.hd[0], v.hd[2], v.nH,
				100*v.worse, m.Bound, v.verdict, gain)
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return status
}
