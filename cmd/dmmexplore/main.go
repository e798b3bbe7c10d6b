// Command dmmexplore explores the DM-management design space against a
// trace: it evaluates candidates drawn from the ~144k valid decision
// vectors plus the methodology's design, prints the footprint/work Pareto
// front, and shows where the methodology's one-walk design lands relative
// to search.
//
// Three search strategies are available. -strategy exhaustive (the
// default) evaluates a uniform stride sample of at most -candidates
// vectors; -strategy ga runs a deterministic seeded genetic algorithm
// (tournament selection, constraint-repaired crossover and mutation,
// elitism) that typically matches the exhaustive best while evaluating a
// fraction of the candidates; -strategy nsga runs the NSGA-II-style
// multi-objective variant that searches for the whole footprint×work
// Pareto front rather than the single best footprint. -seed seeds both
// the workload generator and the genetic strategies, so a run is
// reproduced exactly by its command line at any -parallel.
//
// -objectives selects the optimization axes: "footprint" (the classic
// scalar mode) or "footprint,work" (Pareto mode, the default for
// -strategy nsga), in which the exploration reports the front as a table
// and an ASCII scatter plot.
//
// Candidates are evaluated concurrently on -parallel workers (every
// candidate owns a private simulated heap), with results identical to a
// sequential run. Ctrl-C cancels the exploration.
//
// Long runs survive interruption: -checkpoint FILE writes the full
// exploration state (strategy snapshot, evaluated candidates, trace
// identity) atomically every -checkpoint-every generations, and
// -resume continues from it — the resumed run's output is
// byte-identical to an uninterrupted one. Resume refuses a checkpoint
// written by a different command line or against a different trace.
// -on-error selects what a panicking candidate does to the run: "fail"
// (abort, the default) or "skip" (record it as that candidate's error
// and keep going).
//
// A trace file passed via -trace is replayed out-of-core: every candidate
// streams its own pass straight off the file (binary formats), so even a
// capture far larger than memory explores with O(live-set) memory per
// worker. A positional trace file is materialized and validated instead.
//
// Usage:
//
//	dmmexplore -workload drr -candidates 96
//	dmmexplore -workload drr -strategy ga -population 24 -generations 20
//	dmmexplore -workload drr -strategy nsga -objectives footprint,work
//	dmmexplore -workload render3d -parallel 8
//	dmmexplore -trace drr1.trace
//	dmmexplore drr1.trace
//	dmmexplore -workload drr -strategy ga -checkpoint run.ckpt
//	dmmexplore -workload drr -strategy ga -checkpoint run.ckpt -resume
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"

	"dmmkit"
	"dmmkit/internal/cliopts"
	"dmmkit/internal/textplot"
)

// setupCheckpoint wires checkpoint writing (and, with resume, state
// restoration) into the exploration options. The strategy must
// implement Snapshot/Restore; every built-in one does. A resume whose
// checkpoint file does not exist yet starts fresh — an interrupted run
// may have died before its first checkpoint.
func setupCheckpoint(opts *dmmkit.ExploreOpts, meta dmmkit.CheckpointMeta, path string, every int, resume bool) error {
	if opts.Strategy == nil {
		// The engine's implicit exhaustive strategy lives inside the
		// engine; checkpointing needs an explicit handle to snapshot.
		opts.Strategy = dmmkit.NewExhaustiveSearch(meta.MaxEvaluations)
	}
	snapper, ok := opts.Strategy.(dmmkit.SearchSnapshotter)
	if !ok {
		return fmt.Errorf("-strategy %s does not support checkpointing (no Snapshot/Restore)", meta.Strategy)
	}
	gens := 0
	if resume {
		st, err := dmmkit.LoadCheckpoint(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			fmt.Fprintf(os.Stderr, "dmmexplore: no checkpoint at %s yet; starting fresh\n", path)
		case err != nil:
			return err
		default:
			if !st.Meta.Trace.Equal(meta.Trace) {
				return fmt.Errorf("%s was checkpointed against %s; this run explores %s", path, st.Meta.Trace, meta.Trace)
			}
			have, want := st.Meta, meta
			have.Trace, want.Trace = dmmkit.TraceIdentity{}, dmmkit.TraceIdentity{}
			if have != want {
				return fmt.Errorf("%s was written by a different configuration (checkpoint %+v, command line %+v)", path, have, want)
			}
			if err := snapper.Restore(st.Strategy); err != nil {
				return fmt.Errorf("restoring strategy from %s: %w", path, err)
			}
			prior, err := st.Prior()
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			opts.Prior = prior
			gens = st.GenerationsDone
			fmt.Fprintf(os.Stderr, "dmmexplore: resuming from %s: %d generations, %d candidates already evaluated\n",
				path, gens, len(prior))
		}
	}
	opts.AfterGeneration = func(cands []dmmkit.Candidate) error {
		gens++
		if gens%every != 0 {
			return nil
		}
		snap, err := snapper.Snapshot()
		if err != nil {
			return fmt.Errorf("snapshotting after generation %d: %w", gens, err)
		}
		return dmmkit.SaveCheckpoint(path, &dmmkit.CheckpointState{
			Meta:            meta,
			GenerationsDone: gens,
			Strategy:        json.RawMessage(snap),
			Candidates:      dmmkit.CheckpointCandidates(cands),
		})
	}
	return nil
}

// frontPlot renders the footprint×work front as an ASCII scatter, with
// every evaluated candidate as background context and the methodology's
// design as its own marker when it replayed successfully.
func frontPlot(cands, front []dmmkit.Candidate) string {
	var all, fr, designed textplot.Series
	all.Name = "evaluated candidate"
	fr.Name = "Pareto front"
	designed.Name = "methodology design"
	for _, c := range cands {
		if c.Err != nil {
			continue
		}
		if c.Designed {
			designed.X = append(designed.X, float64(c.MaxFootprint))
			designed.Y = append(designed.Y, float64(c.Work))
			continue
		}
		all.X = append(all.X, float64(c.MaxFootprint))
		all.Y = append(all.Y, float64(c.Work))
	}
	for _, c := range front {
		fr.X = append(fr.X, float64(c.MaxFootprint))
		fr.Y = append(fr.Y, float64(c.Work))
	}
	series := []textplot.Series{all, fr}
	if len(designed.X) > 0 {
		series = append(series, designed)
	}
	return textplot.Plot(72, 16, series...)
}

func main() {
	var (
		workload    = flag.String("workload", "", "generate and explore a registered workload: "+strings.Join(dmmkit.Workloads(), ", "))
		tracePath   = flag.String("trace", "", "explore a trace file, streaming it from disk per candidate (out-of-core; binary traces never materialize)")
		seed        = flag.Int64("seed", 1, "seed for the workload generator and the genetic strategies (identical seed = identical run)")
		strategy    = flag.String("strategy", "exhaustive", "search strategy: "+strings.Join(cliopts.ValidStrategies, ", "))
		objectives  = flag.String("objectives", "", "optimization axes: footprint or footprint,work (default: footprint; footprint,work for nsga)")
		candidates  = flag.Int("candidates", 96, "evaluation budget: stride-sample size (exhaustive) or max evaluations (ga, nsga)")
		population  = flag.Int("population", 24, "GA/NSGA individuals per generation")
		generations = flag.Int("generations", 20, "GA/NSGA generation cap (stops earlier on convergence)")
		quick       = flag.Bool("quick", true, "use a reduced workload (exploration replays every candidate)")
		parallel    = flag.Int("parallel", 0, "concurrent evaluation workers (0 = GOMAXPROCS, 1 = sequential)")
		progress    = flag.Bool("progress", true, "report evaluation progress on stderr")
		plot        = flag.Bool("plot", true, "render an ASCII footprint-vs-work plot in Pareto mode")
		ckptPath    = flag.String("checkpoint", "", "write exploration state to this file for -resume (atomic, CRC-guarded)")
		ckptEvery   = flag.Int("checkpoint-every", 1, "checkpoint after every N generations")
		resume      = flag.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
		onError     = flag.String("on-error", "fail", "panicking-candidate policy: fail (abort the run) or skip (record and continue)")
	)
	flag.Parse()

	// Validate the search flags before the (potentially slow) workload
	// build, so a typo fails instantly with a usage error. The shared
	// cliopts validation keeps these messages identical to the ones
	// dmmserve returns for the same bad input.
	objs, multi, err := cliopts.ResolveMode(*strategy, *objectives)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmmexplore: %v\n", err)
		os.Exit(2)
	}
	errPolicy, err := dmmkit.ParseErrorPolicy(*onError)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmmexplore: bad -on-error: %v\n", err)
		os.Exit(2)
	}
	if *resume && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "dmmexplore: -resume requires -checkpoint FILE")
		os.Exit(2)
	}
	if *ckptEvery < 1 {
		fmt.Fprintf(os.Stderr, "dmmexplore: -checkpoint-every must be >= 1, got %d\n", *ckptEvery)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// op is what the engine explores; traceLine describes it. An
	// in-memory trace reports its event count up front, a streaming
	// DMMT2 file does not (the count lives in its trailer). identityOf
	// computes the trace identity a checkpoint pins — lazily, since
	// hashing a large trace file is wasted work without -checkpoint.
	var op dmmkit.TraceOpener
	var traceLine string
	identityOf := func() (dmmkit.TraceIdentity, error) {
		return dmmkit.TraceIdentity{}, fmt.Errorf("no trace identity")
	}
	switch {
	case *tracePath != "":
		f, err := dmmkit.OpenTraceFile(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmmexplore: %v\n", err)
			os.Exit(1)
		}
		op = f
		traceLine = fmt.Sprintf("%q (streamed from %s)", f.Name(), *tracePath)
		identityOf = func() (dmmkit.TraceIdentity, error) { return dmmkit.TraceFileIdentity(*tracePath) }
	case *workload != "":
		tr, err := dmmkit.BuildWorkload(*workload, dmmkit.WorkloadOpts{Seed: *seed, Quick: *quick})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmmexplore: %v\n", err)
			os.Exit(2)
		}
		op = tr
		traceLine = fmt.Sprintf("%q (%d events, live peak %d B)", tr.Name, len(tr.Events), tr.MaxLiveBytes())
		identityOf = func() (dmmkit.TraceIdentity, error) {
			return dmmkit.WorkloadTraceIdentity(*workload, *seed, *quick), nil
		}
	case flag.NArg() == 1:
		tr, err := dmmkit.LoadTrace(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmmexplore: %v\n", err)
			os.Exit(1)
		}
		op = tr
		traceLine = fmt.Sprintf("%q (%d events, live peak %d B)", tr.Name, len(tr.Events), tr.MaxLiveBytes())
		identityOf = func() (dmmkit.TraceIdentity, error) { return dmmkit.TraceFileIdentity(flag.Arg(0)) }
	default:
		fmt.Fprintln(os.Stderr, "usage: dmmexplore [-workload NAME | -trace FILE | trace-file]")
		os.Exit(2)
	}

	opts := dmmkit.ExploreOpts{
		MaxCandidates:    *candidates,
		IncludeDesigned:  true,
		Parallelism:      *parallel,
		Objectives:       objs,
		OnCandidateError: errPolicy,
	}
	// Build the strategy through the same constructor dmmserve uses, so
	// a job request with these parameters reproduces this run exactly.
	// For exhaustive the engine would default to the same strategy with
	// Strategy nil; constructing it explicitly also gives -checkpoint a
	// handle to snapshot.
	opts.Strategy, err = cliopts.NewStrategy(*strategy, cliopts.SearchConfig{
		Seed:        *seed,
		Population:  *population,
		Generations: *generations,
		Budget:      *candidates,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmmexplore: %v\n", err)
		os.Exit(2)
	}
	switch *strategy {
	case "exhaustive":
		fmt.Printf("exploring up to %d of %d candidates against %s...\n\n",
			*candidates, dmmkit.SpaceSize(), traceLine)
	case "ga":
		fmt.Printf("genetic search (seed %d, population %d, <= %d generations, <= %d evaluations) over %d valid vectors against %s...\n\n",
			*seed, *population, *generations, *candidates, dmmkit.SpaceSize(), traceLine)
	case "nsga":
		fmt.Printf("NSGA-II multi-objective search (seed %d, population %d, <= %d generations, <= %d evaluations) for the footprint×work front over %d valid vectors against %s...\n\n",
			*seed, *population, *generations, *candidates, dmmkit.SpaceSize(), traceLine)
	}
	if *ckptPath != "" {
		identity, err := identityOf()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmmexplore: computing trace identity: %v\n", err)
			os.Exit(1)
		}
		meta := dmmkit.CheckpointMeta{
			Strategy:       *strategy,
			Seed:           *seed,
			Population:     *population,
			Generations:    *generations,
			MaxEvaluations: *candidates,
			Objectives:     cliopts.ObjectivesKey(objs),
			Trace:          identity,
		}
		if err := setupCheckpoint(&opts, meta, *ckptPath, *ckptEvery, *resume); err != nil {
			fmt.Fprintf(os.Stderr, "dmmexplore: %v\n", err)
			os.Exit(1)
		}
	}
	if *progress {
		opts.OnProgress = func(done, total int) {
			if done%16 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\revaluated %d/%d candidates", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	cands, err := dmmkit.NewEngine(*parallel).ExploreSource(ctx, op, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "\ndmmexplore: %v (%d candidates evaluated before cancellation)\n", err, len(cands))
		os.Exit(1)
	}
	failed := 0
	var designed *dmmkit.Candidate
	for i := range cands {
		if cands[i].Err != nil {
			failed++
		}
		if cands[i].Designed {
			designed = &cands[i]
		}
	}
	// Build/replay failures are per-candidate data, but every candidate
	// failing means the trace itself is unusable (e.g. a corrupt stream
	// whose damage only surfaces mid-replay, past the decoder's
	// per-field checks) — that must fail the run, not print an empty
	// front and exit 0.
	if len(cands) > 0 && failed == len(cands) {
		fmt.Fprintf(os.Stderr, "dmmexplore: all %d candidates failed; first error: %v\n",
			failed, cands[0].Err)
		os.Exit(1)
	}
	front := dmmkit.ParetoFront(cands)
	fmt.Printf("evaluated %d candidates (%d failed, %.2f%% of the space); Pareto front (footprint vs work):\n\n",
		len(cands), failed, 100*float64(len(cands))/float64(dmmkit.SpaceSize()))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "footprint (B)\twork units\tdesigned?\tvector")
	for _, c := range front {
		mark := ""
		if c.Designed {
			mark = "<== methodology"
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\n", c.MaxFootprint, c.Work, mark, c.Vector)
	}
	tw.Flush()

	if multi && *plot {
		fmt.Printf("\nfootprint (x, right = more bytes) vs work (y, up = more work):\n\n")
		fmt.Print(frontPlot(cands, front))
	}

	if best, ok := dmmkit.BestByFootprint(cands); ok {
		fmt.Printf("\nbest footprint: %d B (work %d)\n", best.MaxFootprint, best.Work)
	}
	if designed != nil && designed.Err == nil {
		rank := 1
		for _, c := range cands {
			if c.Err == nil && !c.Designed && c.MaxFootprint < designed.MaxFootprint {
				rank++
			}
		}
		fmt.Printf("methodology design: footprint %d B, work %d — rank %d/%d by footprint\n",
			designed.MaxFootprint, designed.Work, rank, len(cands)-failed)
		fmt.Printf("decision vector: %s\n", designed.Vector)
	}
}
