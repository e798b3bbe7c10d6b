package trace_test

import (
	"bytes"
	"testing"

	"dmmkit/internal/netsim"
	"dmmkit/internal/trace"
	"dmmkit/internal/workloads/drr"
)

// BenchmarkDecode times the DMMT2 streaming decoder over an in-memory
// encoding of the quick DRR trace, with no file or replay around it:
// NextBatch is the replay path, Next the upload check's. One op is one
// full pass, header and trailer included; ns/event is the figure to
// compare with bench's trace.decode_ns_per_event and
// trace.validate_ns_per_event rows.
func BenchmarkDecode(b *testing.B) {
	res, err := drr.BuildTrace(drr.Config{Seed: 1, Net: netsim.Config{Phases: 4, PhaseMs: 250}})
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := res.Trace.EncodeBinary2(&enc); err != nil {
		b.Fatal(err)
	}
	data := enc.Bytes()
	events := len(res.Trace.Events)

	run := func(b *testing.B, drain func(trace.Source) (int, error)) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			src, err := trace.DecodeBinarySource(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			n, err := drain(src)
			if err != nil {
				b.Fatal(err)
			}
			if n != events {
				b.Fatalf("decoded %d events, want %d", n, events)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	}
	b.Run("NextBatch", func(b *testing.B) {
		buf := make([]trace.Event, trace.BatchLen)
		run(b, func(src trace.Source) (int, error) {
			bs := src.(trace.BatchSource)
			total := 0
			for {
				n, err := bs.NextBatch(buf)
				total += n
				if err != nil || n == 0 {
					return total, err
				}
			}
		})
	})
	b.Run("Next", func(b *testing.B) {
		run(b, func(src trace.Source) (int, error) {
			total := 0
			for {
				_, ok, err := src.Next()
				if err != nil || !ok {
					return total, err
				}
				total++
			}
		})
	})
}
