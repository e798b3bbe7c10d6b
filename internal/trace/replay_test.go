package trace

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

// churnTrace builds an n-event trace spanning several batches: a ring of
// live allocations, the oldest freed as each new one arrives, with phase
// changes along the way.
func churnTrace(n int) *Trace {
	b := NewBuilder("churn")
	var ring []int64
	for b.EventCount() < n-64 {
		if len(ring) == 64 {
			b.Free(ring[0])
			ring = ring[1:]
		}
		ring = append(ring, b.Alloc(int64(16+8*(b.EventCount()%37)), b.EventCount()%5))
		b.Tick()
		b.SetPhase(b.EventCount() / 1500)
	}
	for _, id := range ring {
		b.Free(id)
	}
	return b.Build()
}

// negateIDs returns tr with every ID negated — ID 0 stays, every other ID
// goes negative — which forces the in-memory path onto the hashed live
// table without changing what the replay does.
func negateIDs(tr *Trace) *Trace {
	out := &Trace{Name: tr.Name, Events: append([]Event(nil), tr.Events...)}
	for i := range out.Events {
		out.Events[i].ID = -out.Events[i].ID
	}
	return out
}

// TestRunSourceFormsAgree is the differential over every way events reach
// the replay kernel: zero-copy in-memory batches with the dense or the
// hashed live table, NextBatch copies through a context wrapper, per-event
// reads through a plain Source, and the DMMT2 decoder. On a good trace all
// must give the same Result, Series included; on a bad one, the same
// error, naming the trace, the manager and the event index.
func TestRunSourceFormsAgree(t *testing.T) {
	good := churnTrace(5*BatchLen + 17)
	bad := churnTrace(5*BatchLen + 17)
	bad.Events[2500] = Event{Kind: KindFree, ID: 1 << 40}
	forms := []struct {
		name string
		open func(tr *Trace) Source // nil: the form cannot carry tr
	}{
		{"in-memory", func(tr *Trace) Source { return tr.Source() }},
		{"context-wrapped", func(tr *Trace) Source { return WithContext(context.Background(), tr.Source()) }},
		{"next-only", func(tr *Trace) Source { return nextOnly{src: tr.Source()} }},
		{"DMMT2", func(tr *Trace) Source {
			var enc bytes.Buffer
			if tr.EncodeBinary2(&enc) != nil {
				return nil // negative IDs have no DMMT2 encoding
			}
			src, err := DecodeBinarySource(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
	}
	want, err := Run(context.Background(), newLeakTestManager(), good, RunOpts{SampleEvery: 97})
	if err != nil {
		t.Fatal(err)
	}
	if want.Events != len(good.Events) || len(want.Series) == 0 {
		t.Fatalf("reference replay covered %d of %d events, %d samples", want.Events, len(good.Events), len(want.Series))
	}
	for _, ids := range []struct {
		name string
		tr   *Trace
	}{{"sequential ids", good}, {"negated ids", negateIDs(good)}} {
		for _, form := range forms {
			src := form.open(ids.tr)
			if src == nil {
				continue
			}
			got, err := RunSource(context.Background(), newLeakTestManager(), src, RunOpts{SampleEvery: 97})
			if err != nil {
				t.Fatalf("%s, %s: %v", form.name, ids.name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s, %s: result diverged from the dense in-memory replay\nwant: %+v\ngot:  %+v",
					form.name, ids.name, want, got)
			}
		}
	}
	for _, form := range forms {
		_, err := RunSource(context.Background(), newLeakTestManager(), form.open(bad), RunOpts{})
		const want = `replay "churn" on leaktest: event 2500: free of unknown id 1099511627776`
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want it to contain %q", form.name, err, want)
		}
	}
}
