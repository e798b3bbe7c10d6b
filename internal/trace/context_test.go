package trace

import (
	"context"
	"errors"
	"testing"
)

func TestWithContextCancelsStream(t *testing.T) {
	tr := sampleTrace()
	ctx, cancel := context.WithCancel(context.Background())
	src := WithContext(ctx, tr.Source())

	if src.Name() != tr.Name {
		t.Errorf("Name = %q, want %q", src.Name(), tr.Name)
	}

	if _, ok, err := src.Next(); !ok || err != nil {
		t.Fatalf("first Next = %v, %v", ok, err)
	}
	cancel()
	if _, ok, err := src.Next(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, %v; want context.Canceled", ok, err)
	}
	// The cancellation latches.
	if _, ok, err := src.Next(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("second Next after cancel = %v, %v", ok, err)
	}
}

func TestWithContextClosesUnderlyingOnCancel(t *testing.T) {
	path, _ := writeSampleFile(t)
	counts := &countingHandles{}
	f, err := OpenFileWith(path, FileOpts{Open: counts.open})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	src := WithContext(ctx, inner)
	if _, ok, err := src.Next(); !ok || err != nil {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	cancel()
	if _, ok, _ := src.Next(); ok {
		t.Fatal("Next after cancel yielded an event")
	}
	if counts.leaked() != 0 {
		t.Fatalf("cancelled wrapper leaked %d handles", counts.leaked())
	}
	if err := Close(src); err != nil { // double release must be safe
		t.Fatalf("Close after cancel: %v", err)
	}
}

func TestSinkWithContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var inner collectSink
	sink := SinkWithContext(ctx, &inner)
	if err := sink.Begin("w"); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteEvent(Event{Kind: KindAlloc, ID: 0, Size: 8}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := sink.WriteEvent(Event{Kind: KindFree, ID: 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteEvent after cancel = %v, want context.Canceled", err)
	}
	if len(inner.events) != 1 {
		t.Fatalf("inner sink saw %d events, want 1 (nothing after cancel)", len(inner.events))
	}
}
