// Command dmmbench regenerates the tables and figures of the paper's
// evaluation (Sec. 5): the maximum-memory-footprint comparison (Table 1),
// the DRR footprint-over-time curves (Figure 5), the execution-time
// overhead claim, the decision-order ablation (Figure 4) and the
// static-vs-dynamic sizing motivation.
//
// Independent cells (workload×seed) run concurrently on -parallel workers;
// results are identical at every parallelism level. Ctrl-C cancels the run.
//
// Usage:
//
//	dmmbench -exp table1            # Table 1 (default 10 seeds, as the paper)
//	dmmbench -exp table1 -parallel 8
//	dmmbench -exp figure5 -csv out.csv
//	dmmbench -exp perf
//	dmmbench -exp order
//	dmmbench -exp static
//	dmmbench -exp evo               # fig-evo: GA vs exhaustive search
//	dmmbench -exp pareto            # fig-pareto: NSGA front vs exhaustive subspace front
//	dmmbench -exp stream            # out-of-core streaming replay measurement
//	dmmbench -exp all -seeds 10
//	dmmbench -exp bench -json BENCH_table1.json   # machine-readable perf baseline
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"dmmkit/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1, figure5, perf, order, static, evo, pareto, fits, stream, bench, all")
		seeds    = flag.Int("seeds", 10, "traces per case study (the paper averages 10)")
		quick    = flag.Bool("quick", false, "smaller workloads (for smoke runs)")
		parallel = flag.Int("parallel", 0, "concurrent cells (0 = GOMAXPROCS, 1 = sequential)")
		csv      = flag.String("csv", "", "write Figure 5 series to this CSV file")
		seed     = flag.Int64("seed", 1, "seed for single-trace experiments (figure5)")
		jsonPath = flag.String("json", "BENCH_table1.json", "output file for -exp bench")
	)
	flag.Parse()
	cfg := experiments.Config{Seeds: *seeds, Quick: *quick, Parallelism: *parallel}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	run := func(name string, fn func() error) {
		if *exp != name && *exp != "all" {
			return
		}
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "dmmbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		t1, err := experiments.RunTable1(ctx, cfg)
		if err != nil {
			return err
		}
		return experiments.WriteTable1(os.Stdout, t1)
	})
	run("figure5", func() error {
		f5, err := experiments.RunFigure5(ctx, cfg, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("DRR footprint over time (%s, %d events):\n\n", f5.TraceName, f5.Events)
		fmt.Println(f5.Chart(86, 18))
		if *csv != "" {
			f, err := os.Create(*csv)
			if err != nil {
				return err
			}
			if err := f5.WriteCSV(f); err != nil {
				_ = f.Close() // the write error is the one worth reporting
				return err
			}
			if err := f.Close(); err != nil {
				return err // buffered CSV rows may be lost
			}
			fmt.Printf("series written to %s\n", *csv)
		}
		return nil
	})
	run("perf", func() error {
		prs, err := experiments.RunPerf(ctx, cfg)
		if err != nil {
			return err
		}
		return experiments.WritePerf(os.Stdout, prs)
	})
	run("order", func() error {
		or, err := experiments.RunOrderAblation(ctx, cfg)
		if err != nil {
			return err
		}
		return experiments.WriteOrder(os.Stdout, or)
	})
	run("static", func() error {
		st, err := experiments.RunStaticVsDynamic(ctx, cfg)
		if err != nil {
			return err
		}
		return experiments.WriteStatic(os.Stdout, st)
	})
	run("evo", func() error {
		er, err := experiments.RunEvo(ctx, cfg, *seed)
		if err != nil {
			return err
		}
		return experiments.WriteEvo(os.Stdout, er)
	})
	run("pareto", func() error {
		pr, err := experiments.RunPareto(ctx, cfg, *seed)
		if err != nil {
			return err
		}
		return experiments.WritePareto(os.Stdout, pr)
	})
	run("fits", func() error {
		frs, err := experiments.RunFitAblation(ctx, cfg)
		if err != nil {
			return err
		}
		return experiments.WriteFits(os.Stdout, frs)
	})
	// The stream experiment generates a ~1M-event trace (full mode), so
	// like bench it only runs when asked for by name.
	if *exp == "stream" {
		fmt.Println("== stream ==")
		sr, err := experiments.RunStream(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmmbench: stream: %v\n", err)
			os.Exit(1)
		}
		if err := experiments.WriteStream(os.Stdout, sr); err != nil {
			fmt.Fprintf(os.Stderr, "dmmbench: stream: %v\n", err)
			os.Exit(1)
		}
	}
	// The bench experiment writes a file, so it only runs when asked for
	// by name — never as part of -exp all.
	if *exp == "bench" {
		fmt.Println("== bench ==")
		rep, err := experiments.RunBenchTable(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmmbench: bench: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmmbench: bench: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteBenchJSON(f); err != nil {
			_ = f.Close()
			fmt.Fprintf(os.Stderr, "dmmbench: bench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dmmbench: bench: closing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("benchmark baseline written to %s (%d rows)\n", *jsonPath, len(rep.Rows))
	}
}
