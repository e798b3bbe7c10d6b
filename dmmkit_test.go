package dmmkit_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"dmmkit"
)

func TestPublicAPIPipeline(t *testing.T) {
	// Build a small trace through the public builder.
	b := dmmkit.NewTraceBuilder("api")
	var ids []int64
	for i := 0; i < 200; i++ {
		ids = append(ids, b.Alloc(int64(64+i%5*100), 0))
		if len(ids) > 16 {
			b.Free(ids[0])
			ids = ids[1:]
		}
	}
	for _, id := range ids {
		b.Free(id)
	}
	tr := b.Build()

	prof := dmmkit.Profile(tr)
	if prof.Allocs != 200 {
		t.Fatalf("Allocs = %d, want 200", prof.Allocs)
	}
	design := dmmkit.Design(prof)
	if err := dmmkit.ValidateVector(design.Vector); err != nil {
		t.Fatalf("designed vector invalid: %v", err)
	}
	mgr, err := design.Build(dmmkit.NewHeap())
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmmkit.Replay(context.Background(), mgr, tr, dmmkit.ReplayOpts{SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFootprint < res.MaxLive {
		t.Errorf("footprint %d below live %d", res.MaxFootprint, res.MaxLive)
	}
	if len(res.Series) == 0 {
		t.Error("no series sampled")
	}
}

func TestPublicBaselines(t *testing.T) {
	for _, mk := range []func() dmmkit.Manager{
		func() dmmkit.Manager { return dmmkit.NewKingsley(dmmkit.NewHeap()) },
		func() dmmkit.Manager { return dmmkit.NewLea(dmmkit.NewHeap()) },
		func() dmmkit.Manager { return dmmkit.NewRegions(dmmkit.NewHeap(), nil) },
		func() dmmkit.Manager { return dmmkit.NewObstack(dmmkit.NewHeap()) },
	} {
		m := mk()
		p, err := m.Alloc(dmmkit.Request{Size: 100})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if err := m.Free(p); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if m.Stats().Allocs != 1 {
			t.Errorf("%s: stats not recorded", m.Name())
		}
	}
}

func TestPublicWorkloadTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation in -short mode")
	}
	drr := dmmkit.DRRTrace(dmmkit.DRRConfig{Seed: 1, Net: dmmkit.NetConfig{Phases: 2, PhaseMs: 100}})
	if err := drr.Validate(); err != nil {
		t.Errorf("DRR trace invalid: %v", err)
	}
	recon := dmmkit.Recon3DTrace(dmmkit.Recon3DConfig{Seed: 1, Pairs: 1})
	if err := recon.Validate(); err != nil {
		t.Errorf("recon3d trace invalid: %v", err)
	}
	render := dmmkit.Render3DTrace(dmmkit.Render3DConfig{Seed: 1, Detail: 100, Frames: 8})
	if err := render.Validate(); err != nil {
		t.Errorf("render3d trace invalid: %v", err)
	}
}

func TestLoadTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := dmmkit.NewTraceBuilder("file")
	id := b.Alloc(128, 1)
	b.Free(id)
	tr := b.Build()

	binPath := filepath.Join(dir, "t.trace")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeBinary2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dmmkit.LoadTrace(binPath)
	if err != nil {
		t.Fatalf("LoadTrace: %v", err)
	}
	if len(got.Events) != 2 {
		t.Errorf("loaded %d events, want 2", len(got.Events))
	}
	if got.Name != "file" {
		t.Errorf("loaded name %q", got.Name)
	}
}

// TestLoadTraceCorruptBinaryReportsBothErrors: a truncated trace fails
// with an error that reports both the decoder's failure and the path of
// the file it was reading.
func TestLoadTraceCorruptBinaryReportsBothErrors(t *testing.T) {
	dir := t.TempDir()
	b := dmmkit.NewTraceBuilder("trunc")
	var ids []int64
	for i := 0; i < 50; i++ {
		ids = append(ids, b.Alloc(int64(100+i), 0))
	}
	for _, id := range ids {
		b.Free(id)
	}
	tr := b.Build()
	var buf bytes.Buffer
	if err := tr.EncodeBinary2(&buf); err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-events: the header still parses, so the failure
	// comes from the event decoder.
	truncated := buf.Bytes()[:buf.Len()/2]
	path := filepath.Join(dir, "trunc.trace")
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := dmmkit.LoadTrace(path)
	if err == nil {
		t.Fatal("LoadTrace accepted a truncated trace")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error does not carry the decoder's truncation failure: %v", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error does not name the file %s: %v", path, err)
	}
}

var facadeSeq atomic.Int64

func TestRegistryFacade(t *testing.T) {
	for _, want := range []string{"kingsley", "lea", "regions", "obstack", "custom", "designed"} {
		if !slices.Contains(dmmkit.Managers(), want) {
			t.Errorf("Managers() = %v missing built-in %q", dmmkit.Managers(), want)
		}
	}
	for _, want := range []string{"drr", "recon3d", "render3d"} {
		if !slices.Contains(dmmkit.Workloads(), want) {
			t.Errorf("Workloads() = %v missing built-in %q", dmmkit.Workloads(), want)
		}
	}

	// Build a workload and a profile-requiring manager through the
	// registry, then replay end to end.
	tr, err := dmmkit.BuildWorkload("drr", dmmkit.WorkloadOpts{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := dmmkit.Profile(tr)
	for _, name := range []string{"kingsley", "custom"} {
		m, err := dmmkit.NewManagerByName(name, nil, prof)
		if err != nil {
			t.Fatalf("NewManagerByName(%q): %v", name, err)
		}
		res, err := dmmkit.Replay(context.Background(), m, tr, dmmkit.ReplayOpts{})
		if err != nil {
			t.Fatalf("replay on %q: %v", name, err)
		}
		if res.MaxFootprint < res.MaxLive {
			t.Errorf("%q: footprint %d below live %d", name, res.MaxFootprint, res.MaxLive)
		}
	}

	// User registrations extend the same namespace the CLIs consume. The
	// registry is process-global, so the name carries a sequence number to
	// survive same-process reruns (go test -count=N).
	name := fmt.Sprintf("test-facade-mgr-%d", facadeSeq.Add(1))
	dmmkit.RegisterManager(name, func(h *dmmkit.Heap, p *dmmkit.AppProfile) (dmmkit.Manager, error) {
		return dmmkit.NewKingsley(h), nil
	})
	if _, err := dmmkit.NewManagerByName(name, nil, nil); err != nil {
		t.Errorf("user-registered manager not constructible: %v", err)
	}

	if _, err := dmmkit.NewManagerByName("custom", nil, nil); err == nil {
		t.Error("custom manager built without a profile")
	}
}

func TestEnumerateAndExploreSmall(t *testing.T) {
	n := dmmkit.EnumerateVectors(func(dmmkit.Vector) bool { return true })
	if n < 100000 {
		t.Errorf("valid space only %d points", n)
	}
	order := dmmkit.TraversalOrder()
	if len(order) == 0 || order[0] != dmmkit.TreeBlockSizes {
		t.Error("traversal order does not start at A2 (block sizes)")
	}
	var bad dmmkit.Vector
	bad.Set(dmmkit.TreeBlockTags, dmmkit.NoTags)
	bad.Set(dmmkit.TreeSplitWhen, dmmkit.Always)
	if msgs := dmmkit.ExplainVector(bad); len(msgs) == 0 {
		t.Error("ExplainVector found no violations in a bad vector")
	}
}
