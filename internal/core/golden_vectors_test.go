package core

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/netsim"
	workpool "dmmkit/internal/pool"
	"dmmkit/internal/profile"
	"dmmkit/internal/search"
	"dmmkit/internal/trace"
	"dmmkit/internal/workloads/drr"
)

var updateVectors = flag.Bool("update", false, "rewrite testdata/golden_vectors.json from current behavior")

const goldenVectorsPath = "testdata/golden_vectors.json"

// goldenVectorSample is the size of the stride sample of the design space
// the vector golden covers.
const goldenVectorSample = 200

// VectorCell records the complete observable outcome of replaying the
// quick DRR trace against one design-space vector: footprint, work, the
// manager's split/coalesce/failure counters, system-call counters and a
// checksum of every heap byte.
type VectorCell struct {
	Vector       string        `json:"vector"`
	Err          string        `json:"err,omitempty"`
	MaxFootprint int64         `json:"max_footprint"`
	MaxLive      int64         `json:"max_live"`
	Final        int64         `json:"final"`
	Work         int64         `json:"work"`
	Splits       int64         `json:"splits"`
	Coalesces    int64         `json:"coalesces"`
	FailedOps    int64         `json:"failed_ops"`
	Sys          heap.SysStats `json:"sys"`
	HeapChecksum uint64        `json:"heap_checksum"`
}

// goldenVectorsTrace is the quick DRR trace at seed 1, the configuration
// the Table 1 golden uses for DRR.
func goldenVectorsTrace(t *testing.T) *trace.Trace {
	t.Helper()
	res, err := drr.BuildTrace(drr.Config{Seed: 1, Net: netsim.Config{Phases: 4, PhaseMs: 250}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// captureVectorCells replays tr against every vector of a stride sample
// of the valid design space, with parameters derived from the trace's
// profile exactly as an exploration derives them. Cells are independent,
// so they replay on GOMAXPROCS workers.
func captureVectorCells(t *testing.T, tr *trace.Trace) []VectorCell {
	t.Helper()
	vecs := search.Sample(goldenVectorSample, nil)
	out := make([]VectorCell, len(vecs))
	forEachVector(t, tr, vecs, func(i int, m *Custom) {
		run, err := trace.Run(context.Background(), m, tr, trace.RunOpts{})
		out[i] = vectorCell(m, run, err)
	})
	return out
}

// forEachVector builds the custom manager of every vector, with
// parameters derived from tr's profile, and hands it to fn on GOMAXPROCS
// workers. A vector the design space accepts must build.
func forEachVector(t *testing.T, tr *trace.Trace, vecs []dspace.Vector, fn func(i int, m *Custom)) {
	t.Helper()
	prof := profile.FromTrace(tr)
	traits := traitsOf(prof)
	err := workpool.Run(context.Background(), 0, len(vecs), func(i int) error {
		m, err := NewCustom(heap.New(heap.Config{}), vecs[i], deriveParams(vecs[i], traits, prof))
		if err != nil {
			return err
		}
		fn(i, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// vectorCell records the outcome of a finished replay against m.
func vectorCell(m *Custom, run trace.Result, err error) VectorCell {
	st := m.Stats()
	cell := VectorCell{
		Vector:       m.Vector().String(),
		MaxFootprint: run.MaxFootprint,
		MaxLive:      run.MaxLive,
		Final:        run.Final,
		Work:         int64(st.Work),
		Splits:       st.Splits,
		Coalesces:    st.Coalesces,
		FailedOps:    st.FailedOps,
		Sys:          m.Heap().SysStats(),
		HeapChecksum: m.Heap().Checksum(),
	}
	if err != nil {
		cell.Err = err.Error()
	}
	return cell
}

// readGoldenVectors loads the committed vector cells.
func readGoldenVectors(t *testing.T) []VectorCell {
	t.Helper()
	data, err := os.ReadFile(goldenVectorsPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var want []VectorCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenVectors is the design-space counterpart of the Table 1 golden
// differential: it replays the quick DRR trace against a stride sample of
// about 200 valid vectors — pool-list lookups, untagged layouts, deferred
// coalescing and every fit policy among them — and compares footprint,
// work, counters and heap checksums against testdata/golden_vectors.json.
// Simulator optimizations in the custom manager must keep all of it
// bit-identical.
//
// Regenerate deliberately with: go test ./internal/core -run GoldenVectors -update
func TestGoldenVectors(t *testing.T) {
	if testing.Short() {
		t.Skip("replays ~200 vectors")
	}
	got := captureVectorCells(t, goldenVectorsTrace(t))
	if *updateVectors {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenVectorsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenVectorsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d vector cells to %s", len(got), goldenVectorsPath)
		return
	}
	want := readGoldenVectors(t)
	if len(got) != len(want) {
		t.Fatalf("got %d cells, golden has %d", len(got), len(want))
	}
	for i, g := range got {
		if w := want[i]; g != w {
			t.Errorf("vector %d diverged:\n  got  %+v\n  want %+v", i, g, w)
		}
	}
}

// TestFreeListsConsistent replays the quick DRR trace against every
// vector of the golden sample and then runs CheckInvariants: every
// pool's in-band free list must hold exactly its count, in order when
// the pool is sorted, with every block recorded as that pool's. A fit
// that unlinks with the wrong predecessor drops blocks off a singly
// linked list while the count still holds them.
func TestFreeListsConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("replays ~200 vectors")
	}
	tr := goldenVectorsTrace(t)
	vecs := search.Sample(goldenVectorSample, nil)
	errs := make([]error, len(vecs))
	forEachVector(t, tr, vecs, func(i int, m *Custom) {
		if _, err := trace.Run(context.Background(), m, tr, trace.RunOpts{}); err != nil {
			errs[i] = err
			return
		}
		errs[i] = m.CheckInvariants()
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("vector %d %v: %v", i, vecs[i], err)
		}
	}
}

// TestCheckInvariantsMidTraceWithoutStatus replays the quick DRR trace
// against a split-only vector with boundary tags that record sizes but no
// status bit, running CheckInvariants every 500 events. Only the free
// lists can tell such a layout's free blocks from its used ones, whose
// footers the manager never writes.
func TestCheckInvariantsMidTraceWithoutStatus(t *testing.T) {
	tr := goldenVectorsTrace(t)
	vecs := search.Sample(1, search.Fixed{
		dspace.A3BlockTags:     dspace.HeaderFooter,
		dspace.A4RecordedInfo:  dspace.RecordSize,
		dspace.A5FlexBlockSize: dspace.SplitOnly,
	})
	if len(vecs) != 1 {
		t.Fatalf("no valid vector in the subspace: %v", vecs)
	}
	forEachVector(t, tr, vecs, func(_ int, m *Custom) {
		r := trace.NewReplayer(m, tr.Name, trace.RunOpts{})
		const every = 500
		for at := 0; at < len(tr.Events); at += every {
			if err := r.Apply(tr.Events[at:min(at+every, len(tr.Events))]); err != nil {
				t.Errorf("%v: replay: %v", m.Vector(), err)
				return
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("%v after %d events: %v", m.Vector(), min(at+every, len(tr.Events)), err)
				return
			}
		}
	})
}
