package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/profile"
)

// Global is the paper's global DM manager (Sec. 3.3): the composition of
// one atomic manager per behavioural phase. Each atomic manager owns its
// own simulated heap, so Global hands out opaque handles and routes frees
// back to the owning manager; its footprint is the sum over the atomic
// heaps, with the high-water mark taken over that sum (not the sum of
// individual high-water marks, which would overestimate).
type Global struct {
	name  string
	order []int        // sorted phases, for deterministic reporting
	mgrs  []mm.Manager // the atomic manager of each phase, parallel to order

	// Handle h names slot h/8-1; freed slots are reused last-in first-out.
	slots []handleSlot
	free  []int32

	maxFootprint int64
	failed       int64 // bad handles; atomic managers count their own failures
}

// handleSlot is one handle's route: the atomic manager (a position in
// mgrs, or -1 while the slot is free) and the address it returned.
type handleSlot struct {
	real heap.Addr
	mgr  int32
}

// handleStride spaces handles like aligned payload addresses; handle 0
// stays heap.Nil.
const handleStride = 8

// NewGlobal composes a global manager from per-phase atomic managers.
// Requests whose phase has no dedicated manager fall back to the lowest
// phase's manager.
func NewGlobal(name string, byPhase map[int]mm.Manager) (*Global, error) {
	if len(byPhase) == 0 {
		return nil, fmt.Errorf("core: global manager needs at least one atomic manager")
	}
	g := &Global{name: name}
	for ph := range byPhase {
		g.order = append(g.order, ph)
	}
	sort.Ints(g.order)
	for _, ph := range g.order {
		g.mgrs = append(g.mgrs, byPhase[ph])
	}
	return g, nil
}

// BuildGlobal designs and constructs a global manager for a profiled
// application: one atomic custom manager per phase found in the profile
// (an application with a single phase gets a single atomic manager).
//
// Per-phase atomic managers assume the phases are memory-disjoint: a
// block allocated in one phase is freed in the same phase, so each atomic
// manager's pool set can be reasoned about locally (Sec. 3.3 applies the
// methodology "to each of these different phases separately"). When the
// profile shows substantial cross-phase lifetimes, the phases share
// memory and a single atomic manager designed on the union behaviour is
// used instead — splitting the heap would strand freed memory in one
// phase's pools while another phase allocates.
func BuildGlobal(name string, p *profile.Profile) (*Global, map[int]Design, error) {
	designs := make(map[int]Design)
	mgrs := make(map[int]mm.Manager)
	crossPhase := p.Frees > 0 && float64(p.CrossPhaseFrees) > 0.01*float64(p.Frees)
	if len(p.Phases) <= 1 || crossPhase {
		d := DesignFor(p)
		m, err := d.Build(heap.New(heap.Config{}))
		if err != nil {
			return nil, nil, err
		}
		m.SetName(name)
		designs[0] = d
		mgrs[0] = m
		g, err := NewGlobal(name, mgrs)
		if err != nil {
			return nil, nil, err
		}
		return g, designs, nil
	}
	for _, pp := range p.Phases {
		d := DesignForPhase(pp, p)
		m, err := d.Build(heap.New(heap.Config{}))
		if err != nil {
			return nil, nil, fmt.Errorf("core: building phase %d manager: %w", pp.Phase, err)
		}
		m.SetName(fmt.Sprintf("%s/phase%d", name, pp.Phase))
		designs[pp.Phase] = d
		mgrs[pp.Phase] = m
	}
	g, err := NewGlobal(name, mgrs)
	if err != nil {
		return nil, nil, err
	}
	return g, designs, nil
}

// Name implements mm.Manager.
func (g *Global) Name() string { return g.name }

// phaseIndex returns the position in order (and mgrs) of a phase; ok is
// false, with position 0, when the phase has no dedicated manager, so
// callers fall back to the lowest phase. Globals have a handful of
// phases, so a scan beats any index.
func (g *Global) phaseIndex(phase int) (i int, ok bool) {
	for i, ph := range g.order {
		if ph == phase {
			return i, true
		}
	}
	return 0, false
}

// Alloc implements mm.Manager. The returned address is an opaque handle.
func (g *Global) Alloc(req mm.Request) (heap.Addr, error) {
	i, _ := g.phaseIndex(req.Phase)
	p, err := g.mgrs[i].Alloc(req)
	if err != nil {
		return heap.Nil, err // the atomic manager counted the failure
	}
	var s int32
	if n := len(g.free); n > 0 {
		s = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		s = int32(len(g.slots))
		g.slots = append(g.slots, handleSlot{})
	}
	g.slots[s] = handleSlot{real: p, mgr: int32(i)}
	g.bump()
	return heap.Addr(s+1) * handleStride, nil
}

// Free implements mm.Manager.
func (g *Global) Free(h heap.Addr) error {
	s := int(h/handleStride) - 1
	if h%handleStride != 0 || s < 0 || s >= len(g.slots) || g.slots[s].mgr < 0 {
		g.failed++
		return mm.ErrBadFree
	}
	hs := g.slots[s]
	g.slots[s].mgr = -1
	g.free = append(g.free, int32(s))
	if err := g.mgrs[hs.mgr].Free(hs.real); err != nil {
		return err // the atomic manager counted the failure
	}
	g.bump()
	return nil
}

func (g *Global) bump() {
	if f := g.Footprint(); f > g.maxFootprint {
		g.maxFootprint = f
	}
}

// Footprint implements mm.Manager: the sum over atomic managers.
func (g *Global) Footprint() int64 {
	var sum int64
	for _, m := range g.mgrs {
		sum += m.Footprint()
	}
	return sum
}

// MaxFootprint implements mm.Manager: the high-water mark of the summed
// footprint.
func (g *Global) MaxFootprint() int64 { return g.maxFootprint }

// Stats implements mm.Manager by aggregating the atomic managers.
func (g *Global) Stats() mm.Stats {
	var s mm.Stats
	for _, m := range g.mgrs {
		as := m.Stats()
		s.Allocs += as.Allocs
		s.Frees += as.Frees
		s.FailedOps += as.FailedOps
		s.LiveBytes += as.LiveBytes
		s.LiveBlocks += as.LiveBlocks
		s.GrossLive += as.GrossLive
		s.Splits += as.Splits
		s.Coalesces += as.Coalesces
		s.Work += as.Work
		s.MaxLive += as.MaxLive // upper bound; see doc comment
	}
	s.FailedOps += g.failed
	return s
}

// Atomic returns the per-phase manager for inspection.
func (g *Global) Atomic(phase int) mm.Manager {
	if i, ok := g.phaseIndex(phase); ok {
		return g.mgrs[i]
	}
	return nil
}

// Phases returns the phases with dedicated atomic managers, ascending.
func (g *Global) Phases() []int { return append([]int(nil), g.order...) }

var (
	_ mm.Manager     = (*Global)(nil)
	_ mm.Checksummer = (*Global)(nil)
)

// StateChecksum implements mm.Checksummer: the per-phase managers'
// checksums in phase order, then every handle slot (its manager named by
// phase, not pointer) and the free slot stack, which decides the handles
// handed out next.
func (g *Global) StateChecksum() uint64 {
	sum := fnv.New64a()
	var scratch [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		sum.Write(scratch[:])
	}
	for i, ph := range g.order {
		word(uint64(int64(ph)))
		if cs, ok := g.mgrs[i].(mm.Checksummer); ok {
			word(cs.StateChecksum())
		}
	}
	word(uint64(len(g.slots)))
	for _, s := range g.slots {
		if s.mgr < 0 {
			word(^uint64(0))
			continue
		}
		word(uint64(int64(g.order[s.mgr])))
		word(uint64(s.real))
	}
	for _, s := range g.free {
		word(uint64(s))
	}
	word(uint64(g.failed))
	return sum.Sum64()
}
