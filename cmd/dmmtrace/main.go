// Command dmmtrace generates the case-study allocation traces to DMMT2
// trace files, for use with dmmprofile and dmmexplore.
//
// Events are piped to the output as the workload generates them, never
// materialized as a slice (the workload's own simulation state is all
// that stays in memory). "-o -" writes to stdout.
//
// Usage:
//
//	dmmtrace -workload drr -seed 3 -o drr3.trace
//	dmmtrace -workload drr -o - | wc -c
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"dmmkit"
)

// fail prints the error and exits non-zero, removing the partially
// written output file first: a trace that failed to encode (disk full,
// I/O error) or was interrupted mid-write must not be left behind
// looking like a valid one.
func fail(err error, removePath string) {
	if removePath != "" {
		os.Remove(removePath)
	}
	fmt.Fprintf(os.Stderr, "dmmtrace: %v\n", err)
	os.Exit(1)
}

func main() {
	var (
		workload = flag.String("workload", "drr", "registered workload: "+strings.Join(dmmkit.Workloads(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed")
		quick    = flag.Bool("quick", false, "reduced workload configuration")
		out      = flag.String("o", "", "output file; - for stdout (default <workload><seed>.trace)")
	)
	flag.Parse()

	// Ctrl-C aborts generation (the context-wrapped sink fails the next
	// streamed event) and removes the partial output file.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Validate the workload name before creating the output file, so a
	// usage error neither creates nor clobbers anything.
	known := false
	for _, w := range dmmkit.Workloads() {
		known = known || w == *workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "dmmtrace: unknown workload %q (registered: %s)\n",
			*workload, strings.Join(dmmkit.Workloads(), ", "))
		os.Exit(2)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("%s%d.trace", *workload, *seed)
	}
	f := os.Stdout
	removePath := ""
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			fail(err, "")
		}
		removePath = path
	}
	// closeOut flushes the file to disk exactly once; a dropped Close
	// error (a full disk buffers locally and fails at close) would report
	// success over a truncated trace.
	closed := false
	closeOut := func() error {
		if closed || f == os.Stdout {
			return nil
		}
		closed = true
		return f.Close()
	}
	defer closeOut()

	// The encoder is the workload's event sink, so the trace goes
	// straight to disk without being materialized. The context wrapper
	// turns a Ctrl-C into a failed write, which the builder latches and
	// BuildWorkload reports.
	enc := dmmkit.NewTraceEncoder(f)
	stats := &dmmkit.TraceStats{Sink: enc}
	tr, err := dmmkit.BuildWorkload(*workload, dmmkit.WorkloadOpts{
		Seed: *seed, Quick: *quick, Sink: dmmkit.SinkWithContext(ctx, stats),
	})
	if err != nil {
		fail(err, removePath)
	}
	// A Ctrl-C after the last event still removes the output via the
	// joined context error.
	if err = errors.Join(enc.Close(), ctx.Err(), closeOut()); err != nil {
		fail(fmt.Errorf("encoding: %w", err), removePath)
	}
	fmt.Fprintf(os.Stderr, "%s: %d events, peak live %d bytes -> %s\n",
		tr.Name, stats.Events(), stats.MaxLiveBytes(), path)
}
