package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func sampleTrace() *Trace {
	b := NewBuilder("sample")
	ids := make([]int64, 0)
	for i := 0; i < 10; i++ {
		ids = append(ids, b.Alloc(int64(100+i*8), i%3))
		b.Tick()
	}
	b.SetPhase(1)
	for _, id := range ids[:5] {
		b.Free(id)
		b.Tick()
	}
	for i := 0; i < 4; i++ {
		ids = append(ids, b.Alloc(int64(2000+i), 7))
	}
	for _, id := range ids[5:] {
		b.Free(id)
	}
	return b.Build()
}

func TestBuilderProducesValidTrace(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.LiveAtEnd() != 0 {
		t.Errorf("LiveAtEnd = %d, want 0", tr.LiveAtEnd())
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	tr := &Trace{Name: "bad", Events: []Event{
		{Kind: KindFree, ID: 0},
	}}
	if err := tr.Validate(); err == nil {
		t.Error("free-before-alloc validated")
	}
	tr = &Trace{Name: "bad2", Events: []Event{
		{Kind: KindAlloc, ID: 0, Size: 10},
		{Kind: KindAlloc, ID: 0, Size: 10},
	}}
	if err := tr.Validate(); err == nil {
		t.Error("duplicate alloc id validated")
	}
	tr = &Trace{Name: "bad3", Events: []Event{
		{Kind: KindAlloc, ID: 0, Size: 0},
	}}
	if err := tr.Validate(); err == nil {
		t.Error("zero-size alloc validated")
	}
}

func TestMaxLiveBytes(t *testing.T) {
	b := NewBuilder("live")
	a := b.Alloc(100, 0)
	c := b.Alloc(200, 0) // peak: 300
	b.Free(a)
	b.Free(c)
	b.Alloc(50, 0)
	tr := b.Build()
	if got := tr.MaxLiveBytes(); got != 300 {
		t.Errorf("MaxLiveBytes = %d, want 300", got)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := DecodeBinary(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := DecodeBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty input decoded")
	}
}

func TestBinaryRoundTripLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder("random")
	var ids []int64
	for i := 0; i < 5000; i++ {
		if len(ids) == 0 || rng.Intn(2) == 0 {
			ids = append(ids, b.Alloc(rng.Int63n(100000)+1, rng.Intn(10)))
		} else {
			j := rng.Intn(len(ids))
			b.Free(ids[j])
			ids = append(ids[:j], ids[j+1:]...)
		}
		if rng.Intn(4) == 0 {
			b.Tick()
		}
		b.SetPhase(i / 1000)
	}
	tr := b.Build()
	var buf bytes.Buffer
	if err := tr.EncodeBinary2(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("large random trace round trip mismatch")
	}
}

func TestBuilderPanicsOnMisuse(t *testing.T) {
	b := NewBuilder("x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double free in builder did not panic")
			}
		}()
		id := b.Alloc(10, 0)
		b.Free(id)
		b.Free(id)
	}()
}
