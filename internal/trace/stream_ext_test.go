// Streaming-replay tests live in the external package for the same
// reason as replay_ext_test.go: they replay against a real manager.
package trace_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dmmkit/internal/alloc/kingsley"
	"dmmkit/internal/heap"
	"dmmkit/internal/trace"
)

// writeChurnTrace streams a generated churn trace (bounded live set,
// arbitrary length) to path in DMMT2 without materializing it, returning
// the event count. The pattern keeps liveSet allocations alive in a ring:
// every step frees the oldest and allocates a new one.
func writeChurnTrace(t *testing.T, path string, events, liveSet int) int {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewEncoder(f)
	b := trace.NewBuilderTo("churn", enc)
	var ring []int64
	for b.EventCount() < events-liveSet {
		if len(ring) >= liveSet {
			b.Free(ring[0])
			ring = ring[1:]
		}
		ring = append(ring, b.Alloc(int64(16+8*(b.EventCount()%37)), b.EventCount()%5))
		if b.EventCount()%3 == 0 {
			b.Tick()
		}
	}
	for _, id := range ring {
		b.Free(id)
	}
	if err := errors.Join(b.Err(), enc.Close(), f.Close()); err != nil {
		t.Fatal(err)
	}
	return b.EventCount()
}

func TestRunSourceMatchesRunOnFile(t *testing.T) {
	tr := replayTrace()
	var buf bytes.Buffer
	if err := tr.EncodeBinary2(&buf); err != nil {
		t.Fatal(err)
	}
	inMem, err := trace.Run(context.Background(), kingsley.New(heap.New(heap.Config{})), tr, trace.RunOpts{SampleEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.DecodeBinarySource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := trace.RunSource(context.Background(), kingsley.New(heap.New(heap.Config{})), src, trace.RunOpts{SampleEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if inMem.MaxFootprint != streamed.MaxFootprint || inMem.Work != streamed.Work ||
		inMem.Stats != streamed.Stats || inMem.Events != streamed.Events ||
		inMem.MaxLive != streamed.MaxLive || inMem.Final != streamed.Final {
		t.Errorf("streaming replay diverged:\nin-mem:   %+v\nstreamed: %+v", inMem, streamed)
	}
	if len(inMem.Series) != len(streamed.Series) {
		t.Fatalf("series: %d vs %d points", len(inMem.Series), len(streamed.Series))
	}
	for i := range inMem.Series {
		if inMem.Series[i] != streamed.Series[i] {
			t.Fatalf("series point %d differs: %+v vs %+v", i, inMem.Series[i], streamed.Series[i])
		}
	}
}

func TestRunSourceReportsDecodeError(t *testing.T) {
	tr := replayTrace()
	var buf bytes.Buffer
	if err := tr.EncodeBinary2(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := trace.DecodeBinarySource(bytes.NewReader(buf.Bytes()[:buf.Len()-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.RunSource(context.Background(), kingsley.New(heap.New(heap.Config{})), src, trace.RunOpts{}); err == nil {
		t.Error("replay of truncated stream succeeded")
	}
}

func TestFileOpenerIndependentPasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "churn.trace")
	n := writeChurnTrace(t, path, 10000, 64)
	f, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "churn" {
		t.Errorf("Name = %q", f.Name())
	}
	// Concurrent passes must not interfere (exploration replays one pass
	// per worker).
	results := make(chan int64, 4)
	for w := 0; w < 4; w++ {
		go func() {
			src, err := f.Open()
			if err != nil {
				results <- -1
				return
			}
			res, err := trace.RunSource(context.Background(), kingsley.New(heap.New(heap.Config{})), src, trace.RunOpts{})
			if err != nil {
				results <- -1
				return
			}
			if res.Events != n {
				results <- -2
				return
			}
			results <- res.MaxFootprint
		}()
	}
	first := <-results
	for w := 1; w < 4; w++ {
		if got := <-results; got != first || got < 0 {
			t.Fatalf("concurrent pass %d returned %d, first returned %d", w, got, first)
		}
	}
	// An abandoned source must release its handle without error.
	src, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if err := trace.Close(src); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := trace.Close(src); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := trace.OpenFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("OpenFile on a missing path succeeded")
	}
}

// TestStreamingReplayBoundedMemory is the acceptance check for
// out-of-core replay: a ~1M-event trace replayed straight off disk must
// allocate far less than the events would occupy materialized (~40 MB) —
// the retained heap is the live-pointer table plus the simulated heap,
// both functions of the live set only, not of the trace length.
func TestStreamingReplayBoundedMemory(t *testing.T) {
	const events = 1_000_000
	const liveSet = 1024
	path := filepath.Join(t.TempDir(), "big.trace")
	n := writeChurnTrace(t, path, events, liveSet)
	if n < events-liveSet {
		t.Fatalf("generated only %d events", n)
	}
	f, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	src, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.RunSource(context.Background(), kingsley.New(heap.New(heap.Config{})), src, trace.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if res.Events != n {
		t.Fatalf("replayed %d events, want %d", res.Events, n)
	}
	if res.MaxFootprint <= 0 {
		t.Fatal("no footprint measured")
	}
	// Materializing would retain ~40 bytes per event; bound the streaming
	// replay at a small fraction of that, generously above the real need
	// (live table + simulated heap + read buffer, all O(live set)).
	const bound = 8 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > bound {
		t.Errorf("streaming replay retained %d bytes of heap (bound %d): memory is not O(live set)", grew, bound)
	}
	t.Logf("replayed %d events; heap grew %d bytes, footprint %d",
		res.Events, int64(after.HeapAlloc)-int64(before.HeapAlloc), res.MaxFootprint)
}
