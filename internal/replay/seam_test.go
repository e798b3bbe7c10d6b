package replay

import (
	"context"
	"strings"
	"testing"

	"dmmkit/internal/alloc/kingsley"
	"dmmkit/internal/heap"
	"dmmkit/internal/trace"
)

// TestSeamChecksCatchEveryField tampers with one field of the recorded
// sequential end state at a time and requires both the sharded Replay
// (whose last shard lands on that state) and every suffix ReplayFrom to
// report the divergence: a suffix that differs only in its high-water
// mark or only in its heap bytes must not pass.
func TestSeamChecksCatchEveryField(t *testing.T) {
	ctx := context.Background()
	tr := &trace.Trace{Name: "seams"}
	for i := 0; i < 600; i++ {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindAlloc, ID: int64(i), Size: int64(16 + i%200), Phase: int32(i / 150)})
		if i >= 8 {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindFree, ID: int64(i - 8), Phase: int32(i / 150)})
		}
	}
	phases, _, err := Build(ctx, kingsley.New(heap.New(heap.Config{})), tr, Options{Every: 200, MinWindow: 50})
	if err != nil {
		t.Fatal(err)
	}
	if phases.Shards() < 3 {
		t.Fatalf("only %d shards", phases.Shards())
	}
	if !phases.final.hasSum {
		t.Fatal("kingsley reported no state checksum; the checksum case would test nothing")
	}
	for _, tc := range []struct {
		name   string
		tamper func(*state)
		report string
	}{
		{"footprint", func(s *state) { s.foot++ }, "footprint"},
		{"max footprint", func(s *state) { s.maxFoot++ }, "footprint"},
		{"stats", func(s *state) { s.stats.Allocs++ }, "stats"},
		{"checksum", func(s *state) { s.sum ^= 1 }, "state checksum"},
	} {
		saved := phases.final
		tc.tamper(&phases.final)
		if _, err := phases.Replay(ctx, 2, trace.RunOpts{}); err == nil || !strings.Contains(err.Error(), tc.report) {
			t.Errorf("%s: Replay error %v, want a %q divergence", tc.name, err, tc.report)
		}
		for k := 0; k < phases.Shards(); k++ {
			if _, err := phases.ReplayFrom(ctx, k, trace.RunOpts{}); err == nil || !strings.Contains(err.Error(), tc.report) {
				t.Errorf("%s: ReplayFrom(%d) error %v, want a %q divergence", tc.name, k, err, tc.report)
			}
		}
		phases.final = saved
		if _, err := phases.ReplayFrom(ctx, 0, trace.RunOpts{}); err != nil {
			t.Fatalf("%s: untampered ReplayFrom: %v", tc.name, err)
		}
	}
}
