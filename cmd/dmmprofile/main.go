// Command dmmprofile analyzes the dynamic-memory behaviour of a trace:
// size populations, lifetimes, phases, LIFO-ness — the inputs of the
// paper's methodology ("we first profile its DM behaviour", Sec. 5). It
// also prints the decision walk the methodology takes for the profile.
//
// Ctrl-C cancels a streaming profile and exits non-zero. With -o the
// report goes to a file instead of stdout; a failed or interrupted run
// removes the partial file rather than leaving it behind looking like a
// complete report.
//
// Usage:
//
//	dmmprofile drr1.trace
//	dmmprofile -trace drr1.trace             # stream the file (out-of-core)
//	dmmprofile -workload render3d -seed 2    # profile a generated trace
//	dmmprofile -trace drr1.trace -o drr1.profile
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"

	"dmmkit"
	"dmmkit/internal/textplot"
)

// fail prints the error and exits non-zero, removing the partially
// written output file first: a report that failed or was interrupted
// must not be left behind looking like a complete one.
func fail(err error, removePath string) {
	if removePath != "" {
		os.Remove(removePath)
	}
	fmt.Fprintf(os.Stderr, "dmmprofile: %v\n", err)
	os.Exit(1)
}

func main() {
	var (
		workload  = flag.String("workload", "", "generate and profile a registered workload: "+strings.Join(dmmkit.Workloads(), ", "))
		seed      = flag.Int64("seed", 1, "workload seed")
		tracePath = flag.String("trace", "", "profile a trace file by streaming it from disk (out-of-core; binary traces never materialize)")
		walk      = flag.Bool("walk", true, "print the methodology's decision walk")
		out       = flag.String("o", "", "write the report to this file instead of stdout (removed again on failure)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var p *dmmkit.AppProfile
	switch {
	case *tracePath != "":
		// The streaming path: one pass over the file, memory bounded by
		// the live set (plus the profiler's lifetime samples) instead of
		// the trace length. The context wrapper makes Ctrl-C fail the
		// stream (closing the file) at the next event.
		f, err := dmmkit.OpenTraceFile(*tracePath)
		if err == nil {
			var src dmmkit.TraceSource
			if src, err = f.Open(); err == nil {
				p, err = dmmkit.ProfileSource(dmmkit.SourceWithContext(ctx, src))
			}
		}
		if err != nil {
			fail(err, "")
		}
	case *workload != "":
		tr, err := dmmkit.BuildWorkload(*workload, dmmkit.WorkloadOpts{Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmmprofile: %v\n", err)
			os.Exit(2)
		}
		p = dmmkit.Profile(tr)
	case flag.NArg() == 1:
		tr, err := dmmkit.LoadTrace(flag.Arg(0))
		if err != nil {
			fail(err, "")
		}
		p = dmmkit.Profile(tr)
	default:
		fmt.Fprintln(os.Stderr, "usage: dmmprofile [-workload NAME | -trace FILE | trace-file]")
		os.Exit(2)
	}
	// The in-memory paths have no streaming cancellation point; honour a
	// Ctrl-C that arrived during them here, before any output exists.
	if err := ctx.Err(); err != nil {
		fail(err, "")
	}

	w := io.Writer(os.Stdout)
	removePath := ""
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fail(err, "")
		}
		removePath = *out
	}
	// closeOut flushes the file exactly once; a dropped Close error (a
	// full disk buffers locally and fails at close) would report success
	// over a truncated report.
	closed := false
	closeOut := func() error {
		if closed || f == nil {
			return nil
		}
		closed = true
		return f.Close()
	}
	defer closeOut()
	if f != nil {
		w = f
	}

	report(w, p, *walk)

	// An interrupt during report writing, or a close failure, must not
	// leave a partial file behind.
	if err := errors.Join(ctx.Err(), closeOut()); err != nil {
		fail(err, removePath)
	}
	if removePath != "" {
		fmt.Fprintf(os.Stderr, "profile written to %s\n", removePath)
	}
}

// report renders the profile (and optionally the methodology's decision
// walk) to w.
func report(w io.Writer, p *dmmkit.AppProfile, walk bool) {
	fmt.Fprintf(w, "trace %q: %d events, %d allocs, %d frees\n", p.Name, p.Events, p.Allocs, p.Frees)
	fmt.Fprintf(w, "sizes: %d distinct in [%d, %d], mean %.1f, CV %.2f\n",
		p.DistinctSizes, p.MinSize, p.MaxSize, p.MeanSize, p.SizeCV)
	fmt.Fprintf(w, "live peak: %d bytes in %d blocks; total allocated %d bytes\n",
		p.MaxLiveBytes, p.MaxLiveBlocks, p.TotalBytes)
	fmt.Fprintf(w, "lifetimes: mean %.1f events, p95 %d; never freed: %d\n",
		p.MeanLifetime, p.P95Lifetime, p.NeverFreed)
	fmt.Fprintf(w, "LIFO score: %.2f; cross-phase frees: %d\n\n", p.LIFOScore, p.CrossPhaseFrees)

	fmt.Fprintln(w, "top request sizes by peak live bytes:")
	var rows []textplot.BarRow
	top := p.Sizes
	if len(top) > 12 {
		// Keep the 12 sizes with the largest live peaks.
		sorted := append([]dmmkit.SizeStats(nil), top...)
		for i := 0; i < len(sorted); i++ {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j].MaxLive > sorted[i].MaxLive {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		top = sorted[:12]
	}
	for _, s := range top {
		rows = append(rows, textplot.BarRow{
			Label: fmt.Sprintf("%6d B x%d", s.Size, s.Count),
			Value: float64(s.MaxLive),
		})
	}
	fmt.Fprint(w, textplot.Bar(rows, 40))

	if len(p.Phases) > 1 {
		fmt.Fprintln(w, "\nphases:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "phase\tevents\tallocs\tsizes\trange\tCV\tlive peak\tLIFO")
		for _, ph := range p.Phases {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t[%d,%d]\t%.2f\t%d\t%.2f\n",
				ph.Phase, ph.Events, ph.Allocs, ph.DistinctSizes, ph.MinSize, ph.MaxSize,
				ph.SizeCV, ph.MaxLiveBytes, ph.LIFOScore)
		}
		tw.Flush()
	}

	if walk {
		d := dmmkit.Design(p)
		fmt.Fprintf(w, "\nmethodology decision walk (order %s):\n\n", "A2->A5->E2->D2->E1->D1->B4->B1->...->C1->...->A1->A3->A4")
		fmt.Fprint(w, d.String())
	}
}
