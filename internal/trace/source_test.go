package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// collectSink materializes a sunk stream, for comparing against the
// direct build.
type collectSink struct {
	name   string
	events []Event
}

func (c *collectSink) Begin(name string) error { c.name = name; return nil }
func (c *collectSink) WriteEvent(e Event) error {
	c.events = append(c.events, e)
	return nil
}

// failSink fails every write after the first n.
type failSink struct{ n int }

func (f *failSink) Begin(string) error { return nil }
func (f *failSink) WriteEvent(Event) error {
	if f.n--; f.n < 0 {
		return errors.New("disk full")
	}
	return nil
}

func drain(t *testing.T, src Source) []Event {
	t.Helper()
	var out []Event
	for {
		e, ok, err := src.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestSliceSourceYieldsTrace(t *testing.T) {
	tr := sampleTrace()
	src := tr.Source()
	if src.Name() != tr.Name {
		t.Errorf("Name = %q, want %q", src.Name(), tr.Name)
	}
	if got := drain(t, src); !reflect.DeepEqual(got, tr.Events) {
		t.Error("source events differ from trace events")
	}
	// Exhausted source stays exhausted; Close is a no-op.
	if _, ok, _ := src.Next(); ok {
		t.Error("Next after exhaustion returned an event")
	}
	if err := Close(src); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestTraceOpenerGivesIndependentPasses(t *testing.T) {
	tr := sampleTrace()
	s1, err := tr.Open()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := tr.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Next(); err != nil {
		t.Fatal(err)
	}
	// Consuming s1 must not advance s2.
	if got := drain(t, s2); len(got) != len(tr.Events) {
		t.Errorf("second pass saw %d events, want %d", len(got), len(tr.Events))
	}
}

func TestBuilderSinkMatchesMaterialized(t *testing.T) {
	build := func(b *Builder) {
		ids := make([]int64, 0)
		for i := 0; i < 50; i++ {
			ids = append(ids, b.Alloc(int64(10+i), i%4))
			if i%3 == 0 {
				b.Tick()
			}
			if i%7 == 0 && len(ids) > 2 {
				b.Free(ids[0])
				ids = ids[1:]
			}
			b.SetPhase(i / 20)
		}
		for _, id := range ids {
			b.Free(id)
		}
	}
	direct := NewBuilder("w")
	build(direct)
	tr := direct.Build()

	var sink collectSink
	streamed := NewBuilderTo("w", &sink)
	build(streamed)
	st := streamed.Build()

	if err := streamed.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if sink.name != "w" || st.Name != "w" {
		t.Errorf("names: sink %q, trace %q", sink.name, st.Name)
	}
	if len(st.Events) != 0 {
		t.Errorf("sink-mode Build materialized %d events", len(st.Events))
	}
	if !reflect.DeepEqual(sink.events, tr.Events) {
		t.Error("sunk events differ from materialized events")
	}
	if streamed.EventCount() != len(tr.Events) {
		t.Errorf("EventCount = %d, want %d", streamed.EventCount(), len(tr.Events))
	}
	if streamed.MaxLiveBytes() != tr.MaxLiveBytes() {
		t.Errorf("MaxLiveBytes = %d, want %d", streamed.MaxLiveBytes(), tr.MaxLiveBytes())
	}
	// The materializing builder reports the same summary numbers.
	if direct.EventCount() != len(tr.Events) || direct.MaxLiveBytes() != tr.MaxLiveBytes() {
		t.Error("materializing builder summary disagrees with its trace")
	}
}

func TestBuilderSinkErrorLatches(t *testing.T) {
	b := NewBuilderTo("x", &failSink{n: 3})
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, b.Alloc(8, 0))
	}
	for _, id := range ids {
		b.Free(id) // keeps running: generators have no error path
	}
	if b.Err() == nil {
		t.Fatal("sink failure not reported")
	}
}

func TestStatsSinkAccounting(t *testing.T) {
	tr := sampleTrace()
	var inner collectSink
	ss := &StatsSink{Sink: &inner}
	if err := ss.Begin(tr.Name); err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := ss.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if ss.TraceName() != tr.Name {
		t.Errorf("TraceName = %q, want %q", ss.TraceName(), tr.Name)
	}
	if ss.Events() != len(tr.Events) {
		t.Errorf("Events = %d, want %d", ss.Events(), len(tr.Events))
	}
	if ss.MaxLiveBytes() != tr.MaxLiveBytes() {
		t.Errorf("MaxLiveBytes = %d, want %d", ss.MaxLiveBytes(), tr.MaxLiveBytes())
	}
	if !reflect.DeepEqual(inner.events, tr.Events) {
		t.Error("StatsSink did not forward the events unchanged")
	}
	// Sinkless StatsSink is a pure counter.
	pure := &StatsSink{}
	if err := pure.WriteEvent(Event{Kind: KindAlloc, ID: 1, Size: 64}); err != nil {
		t.Fatal(err)
	}
	if pure.Events() != 1 || pure.MaxLiveBytes() != 64 {
		t.Errorf("pure counter: events %d, maxlive %d", pure.Events(), pure.MaxLiveBytes())
	}
}

// TestDecodeBinarySourceMatchesDecodeBinary is the decoder differential:
// the streaming and materializing decoders must agree event for event.
func TestDecodeBinarySourceMatchesDecodeBinary(t *testing.T) {
	t.Run("DMMT2", func(t *testing.T) {
		tr := signedTrace(7)
		var buf bytes.Buffer
		if err := tr.EncodeBinary2(&buf); err != nil {
			t.Fatal(err)
		}
		whole, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		src, err := DecodeBinarySource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if src.Name() != whole.Name {
			t.Errorf("Name = %q, want %q", src.Name(), whole.Name)
		}
		if got := drain(t, src); !reflect.DeepEqual(got, whole.Events) {
			t.Error("streamed events differ from materialized decode")
		}
	})
}
