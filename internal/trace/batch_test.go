package trace

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// drainNext collects src's events through the one-event interface.
func drainNext(t *testing.T, src Source) ([]Event, error) {
	t.Helper()
	var out []Event
	for {
		e, ok, err := src.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, e)
	}
}

// drainBatch collects src's events through NextBatch with the given
// buffer size, pre-dirtying the buffer before every call so stale fields
// from reused storage cannot leak into the result unnoticed.
func drainBatch(t *testing.T, src BatchSource, size int) ([]Event, error) {
	t.Helper()
	var out []Event
	buf := make([]Event, size)
	for {
		for i := range buf {
			buf[i] = Event{Kind: 99, ID: -1, Size: -7, Tag: 13, Phase: -5, Tick: 1 << 40}
		}
		n, err := src.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, nil
		}
	}
}

// TestNextBatchMatchesNext is the batch-vs-single differential: over
// valid DMMT2 streams, NextBatch at any buffer size must yield exactly
// the events of a Next loop, and report exhaustion as (0, nil).
func TestNextBatchMatchesNext(t *testing.T) {
	for _, tr := range []*Trace{{Name: "empty"}, sampleTrace(), signedTrace(1), signedTrace(2)} {
		var enc bytes.Buffer
		if err := tr.EncodeBinary2(&enc); err != nil {
			t.Fatal(err)
		}
		ref, err := DecodeBinarySource(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := drainNext(t, ref)
		if err != nil {
			t.Fatalf("%s: next loop: %v", tr.Name, err)
		}
		for _, size := range []int{1, 2, 3, 7, 64, 1024} {
			src, err := DecodeBinarySource(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			bs, ok := src.(BatchSource)
			if !ok {
				t.Fatalf("%s: DMMT2 source does not implement BatchSource", tr.Name)
			}
			got, err := drainBatch(t, bs, size)
			if err != nil {
				t.Fatalf("%s: batch size %d: %v", tr.Name, size, err)
			}
			if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(want, got)) {
				t.Errorf("%s: batch size %d decoded %d events differing from the %d of the next loop",
					tr.Name, size, len(got), len(want))
			}
			// Exhaustion must be latched: further calls keep returning (0, nil).
			if n, err := bs.NextBatch(make([]Event, 4)); n != 0 || err != nil {
				t.Errorf("%s: batch size %d: post-exhaustion NextBatch = (%d, %v), want (0, nil)", tr.Name, size, n, err)
			}
		}
	}
}

// TestNextBatchErrorContract truncates a DMMT2 stream and checks that
// the batch path yields the same event prefix and verdict as the
// one-event path, and that the error latches.
func TestNextBatchErrorContract(t *testing.T) {
	var enc bytes.Buffer
	if err := signedTrace(3).EncodeBinary2(&enc); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(enc.Bytes()) / 2, len(enc.Bytes()) - 1, len(enc.Bytes()) - 5} {
		data := enc.Bytes()[:cut]
		ref, err := DecodeBinarySource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := drainNext(t, ref)
		if wantErr == nil {
			t.Fatalf("cut %d: truncated stream decoded cleanly", cut)
		}

		src, err := DecodeBinarySource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		bs := src.(BatchSource)
		got, gotErr := drainBatch(t, bs, 16)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("cut %d: batch error %v, next loop error %v", cut, gotErr, wantErr)
		}
		if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(want, got)) {
			t.Errorf("cut %d: batch prefix %d events, next loop %d", cut, len(got), len(want))
		}
		if n, err := bs.NextBatch(make([]Event, 4)); n != 0 || err == nil {
			t.Errorf("cut %d: error did not latch: NextBatch = (%d, %v)", cut, n, err)
		}
	}
}

// nextOnly hides every optional extension of a Source, forcing ReadBatch
// onto its per-event fallback.
type nextOnly struct{ src Source }

func (s nextOnly) Name() string               { return s.src.Name() }
func (s nextOnly) Next() (Event, bool, error) { return s.src.Next() }

// TestReadBatchFallback checks ReadBatch's per-event path against the
// batching path on the same trace.
func TestReadBatchFallback(t *testing.T) {
	tr := signedTrace(4)
	var viaFallback []Event
	src := nextOnly{src: tr.Source()}
	buf := make([]Event, 33)
	for {
		n, err := ReadBatch(src, buf)
		if err != nil {
			t.Fatal(err)
		}
		viaFallback = append(viaFallback, buf[:n]...)
		if n == 0 {
			break
		}
	}
	if !reflect.DeepEqual(tr.Events, viaFallback) {
		t.Errorf("fallback ReadBatch decoded %d events, trace has %d", len(viaFallback), len(tr.Events))
	}
}

// TestContextSourceNextBatch checks that the context wrapper keeps
// batching and that cancellation latches on the batch path too.
func TestContextSourceNextBatch(t *testing.T) {
	tr := sampleTrace()
	ctx, cancel := context.WithCancel(context.Background())
	src := WithContext(ctx, tr.Source())
	bs, ok := src.(BatchSource)
	if !ok {
		t.Fatal("context-wrapped source lost BatchSource")
	}
	buf := make([]Event, 5)
	n, err := bs.NextBatch(buf)
	if err != nil || n != 5 {
		t.Fatalf("first batch = (%d, %v), want (5, nil)", n, err)
	}
	if !reflect.DeepEqual(buf[:n], tr.Events[:5]) {
		t.Error("context-wrapped batch events differ from the trace")
	}
	cancel()
	if n, err := bs.NextBatch(buf); n != 0 || err == nil {
		t.Fatalf("post-cancel batch = (%d, %v), want (0, ctx error)", n, err)
	}
	if n, err := bs.NextBatch(buf); n != 0 || err == nil {
		t.Fatalf("cancellation did not latch: (%d, %v)", n, err)
	}
}

// FuzzNextBatch is the batch-path twin of FuzzDecodeBinary: over
// arbitrary input, a NextBatch drain, at more than one buffer size, and
// a Next drain must agree with the reference decoder on verdict, event
// prefix and error text.
func FuzzNextBatch(f *testing.F) {
	for _, tr := range []*Trace{{Name: "empty"}, sampleTrace(), signedTrace(1)} {
		var v2 bytes.Buffer
		if err := tr.EncodeBinary2(&v2); err != nil {
			f.Fatal(err)
		}
		f.Add(v2.Bytes())
		f.Add(v2.Bytes()[:len(v2.Bytes())/2])
		f.Add(v2.Bytes()[:len(v2.Bytes())-1])
	}
	// One corrupted field each, mid-stream, with a correct checksum.
	evs := rawEvents(sampleTrace())
	for _, c := range []struct {
		field int
		b     []byte
	}{
		{fKind, []byte{2}},
		{fID, bytes.Repeat([]byte{0xff}, 10)},
		{fSize, uv(0)},
		{fSize, uv(1 << 63)},
		{fTag, sv(1 << 31)},
	} {
		bad := append([]rawEvent(nil), evs...)
		bad[3] = bad[3].with(c.field, c.b)
		f.Add(rawStream("sample", bad, uint64(len(bad))))
	}
	f.Add([]byte("DMMT2\n"))
	f.Add([]byte("not a trace at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var want decodeOutcome
		want.name, want.events, want.err = refDecode(bytes.NewReader(data))
		for _, size := range []int{0, 1, 8, 1024} {
			if err := sameOutcome(decodeWith(t, bytes.NewReader(data), size), want); err != nil {
				t.Fatalf("size %d (0: Next): %v", size, err)
			}
		}
	})
}
