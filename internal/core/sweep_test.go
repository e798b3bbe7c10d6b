package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"dmmkit/internal/dspace"
	"dmmkit/internal/trace"
)

const sweepGoldenPath = "testdata/design_space_sweep.json"

// sweepEvents is the length of the quick DRR trace prefix every vector
// of the sweep replays.
const sweepEvents = 2000

// sweepGolden pins the whole-design-space sweep: one SHA-256 over the
// JSON encoding of every vector's VectorCell, in Enumerate's order.
type sweepGolden struct {
	Vectors int    `json:"vectors"`
	Events  int    `json:"events"`
	SHA256  string `json:"sha256"`
}

// TestDesignSpaceSweep replays every valid vector of the design space on
// a 2,000-event prefix of the quick DRR trace, with parameters derived
// from the prefix's profile, and runs CheckInvariants at the end. The
// cells must hash to the committed golden, and every size-sorted vector
// must replay exactly as its C2 = lifo sibling: a size-sorted list
// ignores the C2 order.
//
// Regenerate deliberately with: go test ./internal/core -run DesignSpaceSweep -update
func TestDesignSpaceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("replays all 144,480 vectors")
	}
	full := goldenVectorsTrace(t)
	tr := &trace.Trace{Name: full.Name, Events: full.Events[:sweepEvents]}

	var vecs []dspace.Vector
	dspace.Enumerate(func(v dspace.Vector) bool {
		vecs = append(vecs, v)
		return true
	})
	cells := make([]VectorCell, len(vecs))
	errs := make([]error, len(vecs))
	forEachVector(t, tr, vecs, func(i int, m *Custom) {
		run, err := trace.Run(context.Background(), m, tr, trace.RunOpts{})
		cells[i] = vectorCell(m, run, err)
		if err == nil {
			errs[i] = m.CheckInvariants()
		}
	})
	failed := 0
	for i, err := range errs {
		if err != nil {
			if failed++; failed <= 10 {
				t.Errorf("vector %d %v: %v", i, vecs[i], err)
			}
		}
	}
	if failed > 10 {
		t.Errorf("... and %d more vectors fail CheckInvariants", failed-10)
	}

	index := make(map[dspace.Vector]int, len(vecs))
	for i, v := range vecs {
		index[v] = i
	}
	siblings, mismatched := 0, 0
	for i, v := range vecs {
		if v.BlockStructure != dspace.SizeSorted || v.FreeOrder == dspace.LIFOOrder {
			continue
		}
		sib := v
		sib.FreeOrder = dspace.LIFOOrder
		j, ok := index[sib]
		if !ok {
			t.Fatalf("vector %v has no valid C2 = lifo sibling", v)
		}
		siblings++
		got, want := cells[i], cells[j]
		got.Vector = want.Vector
		if got != want {
			if mismatched++; mismatched <= 10 {
				t.Errorf("size-sorted vector %v replays unlike its lifo sibling:\n  got  %+v\n  want %+v", v, cells[i], cells[j])
			}
		}
	}
	if mismatched > 10 {
		t.Errorf("... and %d more size-sorted vectors replay unlike their lifo sibling", mismatched-10)
	}
	t.Logf("%d vectors, %d size-sorted vectors checked against their lifo sibling", len(vecs), siblings)

	h := sha256.New()
	for _, c := range cells {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(line, '\n'))
	}
	got := sweepGolden{Vectors: len(vecs), Events: sweepEvents, SHA256: hex.EncodeToString(h.Sum(nil))}
	if *updateVectors {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sweepGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", sweepGoldenPath)
		return
	}
	data, err := os.ReadFile(sweepGoldenPath)
	if err != nil {
		t.Fatalf("reading sweep golden (regenerate with -update): %v", err)
	}
	var want sweepGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("design-space sweep drifted:\n  got  %+v\n  want %+v", got, want)
	}
}
