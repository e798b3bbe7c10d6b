package alloctest

import (
	"errors"
	"math/rand"
	"testing"

	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

// Options tune the harness per manager family.
type Options struct {
	// MaxSize is the largest request exercised in randomized runs.
	// Defaults to 8192.
	MaxSize int64
	// Tags, when > 0, spreads requests over this many allocation tags
	// (region managers key pools off tags). Defaults to 4.
	Tags int
	// LIFOOnly restricts randomized frees to reverse allocation order,
	// for managers whose reclamation is stack-like (obstacks reclaim
	// lazily otherwise, which is correct but makes footprint bounds
	// meaningless).
	LIFOOnly bool
	// SkipBadFree skips the bad-free behaviour checks for managers that
	// cannot detect them.
	SkipBadFree bool
}

func (o *Options) defaults() {
	if o.MaxSize == 0 {
		o.MaxSize = 8192
	}
	if o.Tags == 0 {
		o.Tags = 4
	}
}

// Factory constructs a fresh manager over a fresh heap.
type Factory func() mm.Manager

// Run exercises the full conformance suite against managers built by f.
func Run(t *testing.T, f Factory, opts Options) {
	t.Helper()
	opts.defaults()
	t.Run("AllocFreeBasic", func(t *testing.T) { testBasic(t, f()) })
	t.Run("PayloadIntegrity", func(t *testing.T) { testPayloadIntegrity(t, f(), opts) })
	t.Run("Errors", func(t *testing.T) { testErrors(t, f(), opts) })
	t.Run("StatsInvariants", func(t *testing.T) { testStats(t, f(), opts) })
	t.Run("Torture", func(t *testing.T) { testTorture(t, f(), opts, 1) })
	t.Run("TortureSeed2", func(t *testing.T) { testTorture(t, f(), opts, 2) })
	t.Run("Contract", func(t *testing.T) { testContract(t, f(), opts) })
}

func testBasic(t *testing.T, m mm.Manager) {
	t.Helper()
	p1, err := m.Alloc(mm.Request{Size: 100})
	if err != nil {
		t.Fatalf("Alloc(100): %v", err)
	}
	p2, err := m.Alloc(mm.Request{Size: 100})
	if err != nil {
		t.Fatalf("second Alloc(100): %v", err)
	}
	if p1 == p2 {
		t.Fatal("two live allocations share an address")
	}
	if err := m.Free(p1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := m.Free(p2); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if got := m.Stats().LiveBytes; got != 0 {
		t.Errorf("LiveBytes after freeing everything = %d, want 0", got)
	}
}

// testPayloadIntegrity fills every live payload with a distinct pattern and
// verifies no allocation or free ever clobbers another live block.
func testPayloadIntegrity(t *testing.T, m mm.Manager, opts Options) {
	t.Helper()
	hp := heapOf(t, m)
	rng := rand.New(rand.NewSource(7))
	type blk struct {
		p    heap.Addr
		n    int64
		pat  byte
		tick int
	}
	live := make([]blk, 0, 64)
	check := func(b blk) {
		for _, x := range hp.Bytes(b.p, b.n) {
			if x != b.pat {
				t.Fatalf("payload of block %#x (size %d, pattern %#x) corrupted: found %#x", b.p, b.n, b.pat, x)
			}
		}
	}
	for i := 0; i < 400; i++ {
		if len(live) == 0 || (rng.Intn(3) != 0 && len(live) < 64) {
			n := rng.Int63n(opts.MaxSize) + 1
			p, err := m.Alloc(mm.Request{Size: n, Tag: rng.Intn(opts.Tags)})
			if err != nil {
				t.Fatalf("op %d: Alloc(%d): %v", i, n, err)
			}
			b := blk{p: p, n: n, pat: byte(i%251 + 1), tick: i}
			hp.Fill(p, n, b.pat)
			live = append(live, b)
		} else {
			j := len(live) - 1
			if !opts.LIFOOnly {
				j = rng.Intn(len(live))
			}
			check(live[j])
			if err := m.Free(live[j].p); err != nil {
				t.Fatalf("op %d: Free(%#x): %v", i, live[j].p, err)
			}
			live = append(live[:j], live[j+1:]...)
		}
		// Spot-check two random live blocks each step.
		for k := 0; k < 2 && len(live) > 0; k++ {
			check(live[rng.Intn(len(live))])
		}
	}
	for _, b := range live {
		check(b)
		if err := m.Free(b.p); err != nil {
			t.Fatalf("final Free(%#x): %v", b.p, err)
		}
	}
}

func testErrors(t *testing.T, m mm.Manager, opts Options) {
	t.Helper()
	if _, err := m.Alloc(mm.Request{Size: 0}); !errors.Is(err, mm.ErrBadSize) {
		t.Errorf("Alloc(0) err = %v, want ErrBadSize", err)
	}
	if _, err := m.Alloc(mm.Request{Size: -3}); !errors.Is(err, mm.ErrBadSize) {
		t.Errorf("Alloc(-3) err = %v, want ErrBadSize", err)
	}
	if opts.SkipBadFree {
		return
	}
	p, err := m.Alloc(mm.Request{Size: 64})
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := m.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := m.Free(p); !errors.Is(err, mm.ErrBadFree) {
		t.Errorf("double Free err = %v, want ErrBadFree", err)
	}
	if err := m.Free(p + 123456); !errors.Is(err, mm.ErrBadFree) {
		t.Errorf("wild Free err = %v, want ErrBadFree", err)
	}
}

func testStats(t *testing.T, m mm.Manager, opts Options) {
	t.Helper()
	var want int64
	var ptrs []heap.Addr
	for _, n := range []int64{1, 8, 100, 1000, opts.MaxSize} {
		p, err := m.Alloc(mm.Request{Size: n})
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		ptrs = append(ptrs, p)
		want += n
		s := m.Stats()
		if s.LiveBytes != want {
			t.Errorf("LiveBytes = %d, want %d", s.LiveBytes, want)
		}
		if s.GrossLive < s.LiveBytes {
			t.Errorf("GrossLive %d < LiveBytes %d", s.GrossLive, s.LiveBytes)
		}
		if m.Footprint() < s.GrossLive {
			t.Errorf("Footprint %d < GrossLive %d", m.Footprint(), s.GrossLive)
		}
		if m.MaxFootprint() < m.Footprint() {
			t.Errorf("MaxFootprint %d < Footprint %d", m.MaxFootprint(), m.Footprint())
		}
	}
	if opts.LIFOOnly {
		for i := len(ptrs) - 1; i >= 0; i-- {
			if err := m.Free(ptrs[i]); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for _, p := range ptrs {
			if err := m.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := m.Stats()
	if s.LiveBytes != 0 || s.LiveBlocks != 0 || s.GrossLive != 0 {
		t.Errorf("after freeing all: LiveBytes=%d LiveBlocks=%d GrossLive=%d, want zeros", s.LiveBytes, s.LiveBlocks, s.GrossLive)
	}
	if s.Allocs != int64(len(ptrs)) || s.Frees != int64(len(ptrs)) {
		t.Errorf("Allocs/Frees = %d/%d, want %d/%d", s.Allocs, s.Frees, len(ptrs), len(ptrs))
	}
	if s.MaxLive != want {
		t.Errorf("MaxLive = %d, want %d", s.MaxLive, want)
	}
}

// testTorture runs a long random alloc/free sequence with mixed sizes and
// verifies the manager stays consistent throughout.
func testTorture(t *testing.T, m mm.Manager, opts Options, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type blk struct {
		p heap.Addr
		n int64
	}
	live := make([]blk, 0, 3000)
	var liveBytes int64
	sizes := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Int63n(32) + 1 // tiny
		case 1:
			return rng.Int63n(256) + 1 // small
		case 2:
			return rng.Int63n(2048) + 1 // medium
		default:
			return rng.Int63n(opts.MaxSize) + 1 // large
		}
	}
	for i := 0; i < 3000; i++ {
		if len(live) == 0 || rng.Intn(100) < 55 {
			n := sizes()
			p, err := m.Alloc(mm.Request{Size: n, Tag: rng.Intn(opts.Tags)})
			if err != nil {
				t.Fatalf("op %d: Alloc(%d): %v", i, n, err)
			}
			live = append(live, blk{p, n})
			liveBytes += n
		} else {
			j := len(live) - 1
			if !opts.LIFOOnly {
				j = rng.Intn(len(live))
			}
			if err := m.Free(live[j].p); err != nil {
				t.Fatalf("op %d: Free: %v", i, err)
			}
			liveBytes -= live[j].n
			live = append(live[:j], live[j+1:]...)
		}
		if s := m.Stats(); s.LiveBytes != liveBytes {
			t.Fatalf("op %d: LiveBytes=%d, harness says %d", i, s.LiveBytes, liveBytes)
		}
		if m.Footprint() > m.MaxFootprint() {
			t.Fatalf("op %d: Footprint exceeds MaxFootprint", i)
		}
	}
	for _, b := range live {
		if err := m.Free(b.p); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.Stats(); s.LiveBytes != 0 {
		t.Fatalf("LiveBytes=%d after freeing everything", s.LiveBytes)
	}
}

// observed is the manager state a failed call must leave untouched.
type observed struct {
	stats         mm.Stats
	foot, maxFoot int64
	sum           uint64 // StateChecksum, 0 when the manager has none
}

func observe(m mm.Manager) observed {
	o := observed{stats: m.Stats(), foot: m.Footprint(), maxFoot: m.MaxFootprint()}
	if cs, ok := m.(mm.Checksummer); ok {
		o.sum = cs.StateChecksum()
	}
	return o
}

// churn runs n seeded random allocations and frees against m, freeing
// only addresses it allocated.
func churn(t *testing.T, m mm.Manager, seed int64, n int, opts Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var live []heap.Addr
	for i := 0; i < n; i++ {
		if len(live) == 0 || rng.Intn(100) < 55 {
			size := rng.Int63n(opts.MaxSize) + 1
			p, err := m.Alloc(mm.Request{Size: size, Tag: rng.Intn(opts.Tags)})
			if err != nil {
				t.Fatalf("op %d: Alloc(%d): %v", i, size, err)
			}
			live = append(live, p)
			continue
		}
		j := len(live) - 1
		if !opts.LIFOOnly {
			j = rng.Intn(len(live))
		}
		if err := m.Free(live[j]); err != nil {
			t.Fatalf("op %d: Free(%#x): %v", i, live[j], err)
		}
		live = append(live[:j], live[j+1:]...)
	}
}

// testContract checks the property replay relies on beyond the allocator
// contract itself: after some churn, a failing call is counted once and
// changes nothing else.
func testContract(t *testing.T, m mm.Manager, opts Options) {
	t.Helper()
	churn(t, m, 11, 200, opts)
	type failing struct {
		name string
		call func() error
	}
	fails := []failing{
		{"Alloc(0)", func() error { _, err := m.Alloc(mm.Request{Size: 0}); return err }},
		{"Alloc(-3)", func() error { _, err := m.Alloc(mm.Request{Size: -3}); return err }},
	}
	if !opts.SkipBadFree {
		p, err := m.Alloc(mm.Request{Size: 64})
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if err := m.Free(p); err != nil {
			t.Fatalf("Free: %v", err)
		}
		fails = append(fails,
			failing{"double Free", func() error { return m.Free(p) }},
			failing{"wild Free", func() error { return m.Free(p + 123456) }})
	}
	for _, fc := range fails {
		before := observe(m)
		if err := fc.call(); err == nil {
			t.Fatalf("%s succeeded", fc.name)
		}
		after := observe(m)
		if after.stats.FailedOps != before.stats.FailedOps+1 {
			t.Errorf("%s: FailedOps %d -> %d, want +1", fc.name, before.stats.FailedOps, after.stats.FailedOps)
		}
		after.stats.FailedOps = before.stats.FailedOps
		if after != before {
			t.Errorf("%s changed state beyond FailedOps:\n before %+v\n after  %+v", fc.name, before, after)
		}
	}
}

// heapOf extracts the simulated heap from a manager for payload checks.
// Managers expose it via a Heap() accessor.
func heapOf(t *testing.T, m mm.Manager) *heap.Heap {
	t.Helper()
	h, ok := m.(interface{ Heap() *heap.Heap })
	if !ok {
		t.Fatalf("%s does not expose Heap()", m.Name())
	}
	return h.Heap()
}
