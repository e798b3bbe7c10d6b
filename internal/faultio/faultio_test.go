package faultio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/trace"
)

func TestReaderShortRead(t *testing.T) {
	data := []byte("0123456789abcdef")
	r := NewReader(bytes.NewReader(data), Plan{Faults: []Fault{{Kind: ShortRead, Offset: 5}}})
	buf := make([]byte, 16)
	n, err := r.Read(buf)
	if err != nil || n != 5 {
		t.Fatalf("first read = %d, %v; want 5, nil (truncated at the fault)", n, err)
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]) + string(rest); got != string(data) {
		t.Fatalf("reassembled %q, want %q", got, data)
	}
}

func TestReaderTransientFiresOnce(t *testing.T) {
	data := []byte("0123456789")
	r := NewReader(bytes.NewReader(data), Plan{Faults: []Fault{{Kind: Transient, Offset: 4}}})
	buf := make([]byte, 16)
	n, err := r.Read(buf)
	if err != nil || n != 4 {
		t.Fatalf("first read = %d, %v; want 4, nil (stops before the fault)", n, err)
	}
	var te *TransientError
	if _, err := r.Read(buf); !errors.As(err, &te) {
		t.Fatalf("second read err = %v, want a *TransientError", err)
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "456789" {
		t.Fatalf("after the transient fault read %q, want %q", rest, "456789")
	}
}

func TestReaderHardIsPermanent(t *testing.T) {
	data := []byte("0123456789")
	r := NewReader(bytes.NewReader(data), Plan{Faults: []Fault{{Kind: Hard, Offset: 3}}})
	got, err := io.ReadAll(r)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if string(got) != "012" {
		t.Fatalf("read %q before the fault, want %q", got, "012")
	}
	if _, err := r.Read(make([]byte, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("hard fault did not latch: %v", err)
	}
}

func TestReaderCorruptBit(t *testing.T) {
	data := []byte{0x00, 0x00, 0x00, 0x00}
	r := NewReader(bytes.NewReader(data), Plan{Faults: []Fault{{Kind: CorruptBit, Offset: 2, Bit: 3}}})
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x00, 0x00, 0x08, 0x00}; !bytes.Equal(got, want) {
		t.Fatalf("read % x, want % x", got, want)
	}
}

// TestReaderBufferSizeInvariance: the observable corruption must not
// depend on the consumer's read granularity.
func TestReaderBufferSizeInvariance(t *testing.T) {
	data := make([]byte, 257)
	for i := range data {
		data[i] = byte(i * 7)
	}
	plan := RandomPlan(11, int64(len(data)), 3)
	// Drop error faults: this test is about corruption placement.
	var corrupt Plan
	for _, f := range plan.Faults {
		if f.Kind == CorruptBit || f.Kind == ShortRead {
			corrupt.Faults = append(corrupt.Faults, f)
		}
	}
	read := func(bufSize int) []byte {
		r := NewReader(bytes.NewReader(data), corrupt)
		var out []byte
		buf := make([]byte, bufSize)
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	want := read(1)
	for _, size := range []int{2, 3, 16, 64, 1024} {
		if got := read(size); !bytes.Equal(got, want) {
			t.Fatalf("buffer size %d produced different bytes than size 1", size)
		}
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := RandomPlan(7, 1000, 5)
	b := RandomPlan(7, 1000, 5)
	if len(a.Faults) != 5 || len(b.Faults) != 5 {
		t.Fatalf("plan sizes %d, %d; want 5", len(a.Faults), len(b.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs between identically seeded plans", i)
		}
	}
	c := RandomPlan(8, 1000, 5)
	same := true
	for i := range a.Faults {
		if a.Faults[i] != c.Faults[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical plans")
	}
}

// bumpManager is a trivial never-failing allocator, so replay outcomes
// depend only on the event stream.
type bumpManager struct {
	next heap.Addr
	live map[heap.Addr]int64
	cur  int64
	max  int64
}

func newBumpManager() *bumpManager { return &bumpManager{next: 16, live: map[heap.Addr]int64{}} }

func (m *bumpManager) Name() string { return "bump" }

func (m *bumpManager) Alloc(r mm.Request) (heap.Addr, error) {
	p := m.next
	m.next += heap.Addr(r.Size)
	m.live[p] = r.Size
	m.cur += r.Size
	if m.cur > m.max {
		m.max = m.cur
	}
	return p, nil
}

func (m *bumpManager) Free(p heap.Addr) error {
	size, ok := m.live[p]
	if !ok {
		return fmt.Errorf("bump: free of unknown %v", p)
	}
	delete(m.live, p)
	m.cur -= size
	return nil
}

func (m *bumpManager) Footprint() int64    { return m.cur }
func (m *bumpManager) MaxFootprint() int64 { return m.max }
func (m *bumpManager) Stats() mm.Stats     { return mm.Stats{LiveBytes: m.cur, MaxLive: m.max} }

// corpusTrace builds a deterministic trace with interesting structure:
// phases, tags, interleaved frees.
func corpusTrace() *trace.Trace {
	tr := &trace.Trace{Name: "faultio-corpus"}
	id := int64(0)
	tick := int64(0)
	var liveIDs []int64
	for phase := 0; phase < 4; phase++ {
		for i := 0; i < 60; i++ {
			size := int64(8 + (i*13+phase*7)%120)
			tr.Events = append(tr.Events, trace.Event{
				Kind: trace.KindAlloc, ID: id, Size: size,
				Tag: int32(i % 5), Phase: int32(phase), Tick: tick,
			})
			liveIDs = append(liveIDs, id)
			id++
			tick += int64(1 + i%3)
			if i%3 == 2 && len(liveIDs) > 4 {
				victim := liveIDs[0]
				liveIDs = liveIDs[1:]
				tr.Events = append(tr.Events, trace.Event{
					Kind: trace.KindFree, ID: victim, Phase: int32(phase), Tick: tick,
				})
				tick++
			}
		}
	}
	for _, v := range liveIDs {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindFree, ID: v, Phase: 3, Tick: tick})
		tick++
	}
	return tr
}

func replayBytes(raw []byte, plan Plan) (trace.Result, error) {
	src, err := trace.DecodeBinarySource(NewReader(bytes.NewReader(raw), plan))
	if err != nil {
		return trace.Result{}, err
	}
	return trace.RunSource(context.Background(), newBumpManager(), src, trace.RunOpts{})
}

func resultsEqual(a, b trace.Result) bool {
	return a.TraceName == b.TraceName && a.Events == b.Events &&
		a.MaxFootprint == b.MaxFootprint && a.MaxLive == b.MaxLive &&
		a.Final == b.Final && a.Work == b.Work && a.Stats == b.Stats
}

// TestDifferentialFaultCorpus is the faultio guarantee: across a seeded
// corpus of fault plans, every replay of a faulted DMMT2 stream either
// fails with a clean error or produces results identical to the
// fault-free replay. Never a panic, never silently different numbers.
func TestDifferentialFaultCorpus(t *testing.T) {
	tr := corpusTrace()
	var buf bytes.Buffer
	if err := tr.EncodeBinary2(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	baseline, err := replayBytes(raw, Plan{})
	if err != nil {
		t.Fatalf("fault-free replay: %v", err)
	}

	const seeds = 300
	clean, faulted := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		plan := RandomPlan(seed, int64(len(raw)), 1+int(seed%4))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d (plan %+v): replay panicked: %v", seed, plan, r)
				}
			}()
			res, err := replayBytes(raw, plan)
			if err != nil {
				faulted++
				return // a clean error is an acceptable outcome
			}
			clean++
			if !resultsEqual(res, baseline) {
				t.Fatalf("seed %d (plan %+v): replay succeeded with different results:\n got %+v\nwant %+v",
					seed, plan, res, baseline)
			}
		}()
	}
	if clean == 0 || faulted == 0 {
		t.Fatalf("corpus is degenerate: %d clean, %d faulted of %d seeds — both outcomes must be exercised",
			clean, faulted, seeds)
	}
	t.Logf("corpus: %d clean, %d errored, 0 panics, 0 silent corruptions", clean, faulted)
}

func TestSourceFailAt(t *testing.T) {
	tr := corpusTrace()
	src := NewSource(tr.Source(), SourceFaults{FailAt: 10, PanicAt: -1})
	if src.Name() != tr.Name {
		t.Errorf("Name = %q, want %q", src.Name(), tr.Name)
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := src.Next(); !ok || err != nil {
			t.Fatalf("event %d: %v, %v", i, ok, err)
		}
	}
	if _, ok, err := src.Next(); ok || !errors.Is(err, ErrInjected) {
		t.Fatalf("event 10 = %v, %v; want injected failure", ok, err)
	}
	// The failure latches.
	if _, ok, err := src.Next(); ok || !errors.Is(err, ErrInjected) {
		t.Fatalf("after failure = %v, %v; want latched failure", ok, err)
	}
}

func TestSourcePanicAt(t *testing.T) {
	tr := corpusTrace()
	src := NewSource(tr.Source(), SourceFaults{FailAt: -1, PanicAt: 3})
	for i := 0; i < 3; i++ {
		if _, ok, err := src.Next(); !ok || err != nil {
			t.Fatalf("event %d: %v, %v", i, ok, err)
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Next at the panic index did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "injected panic") {
			t.Fatalf("panic value = %v, want the injected panic", r)
		}
	}()
	src.Next()
}

func TestOpenerFaults(t *testing.T) {
	tr := corpusTrace()
	op := NewOpener(tr, OpenerFaults{
		TransientAttempts: []int{1},
		HardAttempts:      []int{3},
		Source:            func(s trace.Source) trace.Source { return NewSource(s, SourceFaults{FailAt: -1, PanicAt: -1}) },
	})
	var te *TransientError
	if _, err := op.Open(); !errors.As(err, &te) {
		t.Fatalf("attempt 1 err = %v, want a *TransientError", err)
	}
	src, err := op.Open()
	if err != nil {
		t.Fatalf("attempt 2: %v", err)
	}
	if _, ok, err := src.Next(); !ok || err != nil {
		t.Fatalf("wrapped source Next = %v, %v", ok, err)
	}
	if _, err := op.Open(); !errors.Is(err, ErrInjected) {
		t.Fatalf("attempt 3 err = %v, want hard injected failure", err)
	}
	if _, err := op.Open(); err != nil {
		t.Fatalf("attempt 4: %v", err)
	}
}
