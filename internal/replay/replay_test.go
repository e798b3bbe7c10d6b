package replay_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/profile"
	"dmmkit/internal/registry"
	"dmmkit/internal/replay"
	"dmmkit/internal/trace"

	_ "dmmkit/internal/alloc/kingsley"
	_ "dmmkit/internal/alloc/lea"
	_ "dmmkit/internal/alloc/obstack"
	_ "dmmkit/internal/alloc/region"
	_ "dmmkit/internal/core"
	_ "dmmkit/internal/workloads/drr"
	_ "dmmkit/internal/workloads/recon3d"
	_ "dmmkit/internal/workloads/render3d"
)

// shardOpts forces multiple shards even on quick traces, which are too
// short for the production defaults to split.
var shardOpts = replay.Options{Every: 512, MinWindow: 64, MaxShards: 8}

// TestShardedReplayMatchesSequential is the acceptance differential for
// the sharding tentpole: for every registered workload and manager, the
// Build result, the parallel sharded Replay result and the incremental
// ReplayFrom result must all equal the plain sequential trace.Run
// result — footprint, work, stats, and the heap's system-call counters.
func TestShardedReplayMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, w := range registry.Workloads() {
		tr, err := registry.BuildWorkload(w, registry.WorkloadOpts{Seed: 1, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		prof := profile.FromTrace(tr)
		for _, m := range registry.Managers() {
			h1 := heap.New(heap.Config{})
			m1, err := registry.NewManager(m, h1, prof)
			if err != nil {
				t.Fatalf("%s/%s: %v", w, m, err)
			}
			want, err := trace.Run(ctx, m1, tr, trace.RunOpts{})
			if err != nil {
				t.Fatalf("%s/%s: sequential replay: %v", w, m, err)
			}

			h2 := heap.New(heap.Config{})
			m2, err := registry.NewManager(m, h2, prof)
			if err != nil {
				t.Fatalf("%s/%s: %v", w, m, err)
			}
			phases, buildRes, err := replay.Build(ctx, m2, tr, shardOpts)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", w, m, err)
			}
			if !reflect.DeepEqual(want, buildRes) {
				t.Errorf("%s/%s: build result diverged\nwant: %+v\ngot:  %+v", w, m, want, buildRes)
			}
			if h1.SysStats() != h2.SysStats() {
				t.Errorf("%s/%s: heap SysStats diverged: %+v vs %+v", w, m, h1.SysStats(), h2.SysStats())
			}
			if phases.Shards() < 2 {
				t.Errorf("%s/%s: only %d shard(s); the differential needs a real split", w, m, phases.Shards())
			}
			if phases.Events() != len(tr.Events) {
				t.Errorf("%s/%s: indexed %d events, trace has %d", w, m, phases.Events(), len(tr.Events))
			}

			sharded, err := phases.Replay(ctx, 4, trace.RunOpts{})
			if err != nil {
				t.Fatalf("%s/%s: sharded replay: %v", w, m, err)
			}
			if !reflect.DeepEqual(want, sharded) {
				t.Errorf("%s/%s: sharded replay diverged\nwant: %+v\ngot:  %+v", w, m, want, sharded)
			}

			for _, k := range []int{0, phases.Shards() - 1} {
				suffix, err := phases.ReplayFrom(ctx, k, trace.RunOpts{})
				if err != nil {
					t.Fatalf("%s/%s: replay from shard %d: %v", w, m, k, err)
				}
				suffix.Series = nil
				if !reflect.DeepEqual(want, suffix) {
					t.Errorf("%s/%s: suffix replay from shard %d diverged\nwant: %+v\ngot:  %+v", w, m, k, want, suffix)
				}
			}
		}
	}
}

// TestShardedReplayFromFile runs the differential over a DMMT2 file
// opener, which exercises the positioned OpenAt path: shards seek
// straight to their snapshot offsets instead of re-decoding the prefix.
func TestShardedReplayFromFile(t *testing.T) {
	ctx := context.Background()
	tr, err := registry.BuildWorkload("drr", registry.WorkloadOpts{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.FromTrace(tr)
	path := filepath.Join(t.TempDir(), "drr.dmmt2")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeBinary2(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range registry.Managers() {
		m1, err := registry.NewManager(m, nil, prof)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		want, err := trace.Run(ctx, m1, tr, trace.RunOpts{})
		if err != nil {
			t.Fatalf("%s: sequential replay: %v", m, err)
		}

		m2, err := registry.NewManager(m, nil, prof)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		phases, _, err := replay.Build(ctx, m2, f, shardOpts)
		if err != nil {
			t.Fatalf("%s: build: %v", m, err)
		}
		if phases.Shards() < 2 {
			t.Fatalf("%s: only %d shard(s)", m, phases.Shards())
		}
		sharded, err := phases.Replay(ctx, 4, trace.RunOpts{})
		if err != nil {
			t.Fatalf("%s: sharded replay: %v", m, err)
		}
		if !reflect.DeepEqual(want, sharded) {
			t.Errorf("%s: sharded file replay diverged\nwant: %+v\ngot:  %+v", m, want, sharded)
		}
	}
}

// plainOpener hides OpenAt, so shards over it decode and skip their
// whole prefix instead of seeking.
type plainOpener struct{ f *trace.File }

func (o plainOpener) Open() (trace.Source, error) { return o.f.Open() }

// TestShardedReplayMidBatch snapshots a DMMT2 file every 1000 events — a
// count that does not divide trace.BatchLen — and at phase boundaries, so
// most snapshots land inside a build batch: a positioned shard seeks to
// the batch start and skips to its first event, an unpositioned one
// skips the whole prefix. Both must replay every window and every suffix
// exactly as the sequential replay does.
func TestShardedReplayMidBatch(t *testing.T) {
	ctx := context.Background()
	tr, err := registry.BuildWorkload("drr", registry.WorkloadOpts{Seed: 4, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.FromTrace(tr)
	path := filepath.Join(t.TempDir(), "drr.dmmt2")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeBinary2(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := replay.Options{Every: 1000, MinWindow: 64, MaxShards: 16}
	runOpts := trace.RunOpts{SampleEvery: 89}
	m1, err := registry.NewManager("lea", nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Run(ctx, m1, tr, runOpts)
	if err != nil {
		t.Fatal(err)
	}

	for _, op := range []struct {
		name string
		op   trace.Opener
	}{{"seek", f}, {"skip", plainOpener{f}}} {
		m2, err := registry.NewManager("lea", nil, prof)
		if err != nil {
			t.Fatal(err)
		}
		phases, _, err := replay.Build(ctx, m2, op.op, opts)
		if err != nil {
			t.Fatalf("%s: build: %v", op.name, err)
		}
		midBatch := 0
		for k := 0; k < phases.Shards(); k++ {
			if phases.Boundary(k)%trace.BatchLen != 0 {
				midBatch++
			}
		}
		if phases.Shards() < 4 || midBatch < 3 {
			t.Fatalf("%s: %d shards, %d starting mid-batch; the test needs several", op.name, phases.Shards(), midBatch)
		}
		sharded, err := phases.Replay(ctx, 4, runOpts)
		if err != nil {
			t.Fatalf("%s: sharded replay: %v", op.name, err)
		}
		if !reflect.DeepEqual(want, sharded) {
			t.Errorf("%s: sharded replay diverged\nwant: %+v\ngot:  %+v", op.name, want, sharded)
		}
		for k := 0; k < phases.Shards(); k++ {
			suffix, err := phases.ReplayFrom(ctx, k, trace.RunOpts{})
			if err != nil {
				t.Fatalf("%s: replay from shard %d: %v", op.name, k, err)
			}
			suffix.Series = want.Series
			if !reflect.DeepEqual(want, suffix) {
				t.Errorf("%s: suffix replay from shard %d diverged\nwant: %+v\ngot:  %+v", op.name, k, want, suffix)
			}
		}
	}
}

// TestShardedSeriesMatchesSequential pins the sampling contract: with
// SampleEvery set, the concatenated shard series must be the sequential
// series, point for point (samples are taken at global indices).
func TestShardedSeriesMatchesSequential(t *testing.T) {
	ctx := context.Background()
	tr, err := registry.BuildWorkload("drr", registry.WorkloadOpts{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.FromTrace(tr)
	opts := trace.RunOpts{SampleEvery: 97}

	m1, err := registry.NewManager("kingsley", nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Run(ctx, m1, tr, opts)
	if err != nil {
		t.Fatal(err)
	}

	m2, err := registry.NewManager("kingsley", nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	phases, _, err := replay.Build(ctx, m2, tr, shardOpts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := phases.Replay(ctx, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, sharded) {
		t.Errorf("sampled sharded replay diverged\nwant: %+v\ngot:  %+v", want, sharded)
	}
}

// TestPhasesReusable replays the same index twice and sequentially after
// a parallel run: snapshots are cloned per run, so a Phases must behave
// as an immutable index.
func TestPhasesReusable(t *testing.T) {
	ctx := context.Background()
	tr, err := registry.BuildWorkload("drr", registry.WorkloadOpts{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := registry.NewManager("lea", nil, profile.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	phases, buildRes, err := replay.Build(ctx, m, tr, shardOpts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := phases.Replay(ctx, 4, trace.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := phases.Replay(ctx, 1, trace.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("replays of the same index diverged\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if !reflect.DeepEqual(buildRes, first) {
		t.Errorf("replay diverged from build\nbuild:  %+v\nreplay: %+v", buildRes, first)
	}
}

// TestCloneIndependence checks the manager Clone contract directly for
// every registered family: replay half a trace, fork the replay kernel
// (manager clone plus live table), finish the trace on both the original
// and the fork independently, and require identical end states — any
// shared mutable structure would desync them.
func TestCloneIndependence(t *testing.T) {
	tr, err := registry.BuildWorkload("drr", registry.WorkloadOpts{Seed: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.FromTrace(tr)
	half := len(tr.Events) / 2
	for _, name := range registry.Managers() {
		m, err := registry.NewManager(name, nil, prof)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := m.(mm.Cloner); !ok {
			t.Fatalf("%s: registered manager does not implement mm.Cloner", name)
		}
		r := trace.NewReplayer(m, tr.Name, trace.RunOpts{})
		if err := r.Apply(tr.Events[:half]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fork, err := r.Fork(trace.RunOpts{})
		if err != nil {
			t.Fatalf("%s: fork: %v", name, err)
		}
		for _, rep := range []*trace.Replayer{r, fork} {
			if err := rep.Apply(tr.Events[half:]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}

		cm := fork.Manager()
		if m.Footprint() != cm.Footprint() || m.MaxFootprint() != cm.MaxFootprint() {
			t.Errorf("%s: clone footprint %d/%d, original %d/%d",
				name, cm.Footprint(), cm.MaxFootprint(), m.Footprint(), m.MaxFootprint())
		}
		if m.Stats() != cm.Stats() {
			t.Errorf("%s: clone stats %+v, original %+v", name, cm.Stats(), m.Stats())
		}
		s1, ok1 := m.(mm.Checksummer)
		s2, ok2 := cm.(mm.Checksummer)
		if !ok1 || !ok2 {
			t.Fatalf("%s: manager or clone does not implement mm.Checksummer", name)
		}
		if s1.StateChecksum() != s2.StateChecksum() {
			t.Errorf("%s: clone checksum %016x, original %016x", name, s2.StateChecksum(), s1.StateChecksum())
		}
	}
}

// TestBuildRejectsNonCloner pins the error path for managers without
// clone support.
func TestBuildRejectsNonCloner(t *testing.T) {
	tr := &trace.Trace{Name: "t", Events: []trace.Event{{Kind: trace.KindAlloc, ID: 1, Size: 16}}}
	if _, _, err := replay.Build(context.Background(), nonCloner{}, tr, replay.Options{}); err == nil {
		t.Fatal("Build accepted a manager without CloneManager")
	}
}

type nonCloner struct{}

func (nonCloner) Name() string                        { return "noclone" }
func (nonCloner) Alloc(mm.Request) (heap.Addr, error) { return 0, nil }
func (nonCloner) Free(heap.Addr) error                { return nil }
func (nonCloner) Footprint() int64                    { return 0 }
func (nonCloner) MaxFootprint() int64                 { return 0 }
func (nonCloner) Stats() mm.Stats                     { return mm.Stats{} }
