package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"dmmkit/internal/mm"
)

// CloneManager implements mm.Cloner. Pools with their sorted-list
// indexes, keys, the nonempty bitset and the out-of-band size/pool tables
// are deep-copied with the base, and the pool cache and consolidation
// snapshot, which point at the original's pools, start empty; the design
// vector and parameters are read-only after construction and shared.
func (m *Custom) CloneManager() (mm.Manager, error) {
	n := *m
	n.Base = m.CloneBase()
	n.byID = make([]*pool, len(m.byID))
	n.pools = make([]*pool, len(m.pools))
	for id, p := range m.byID {
		cp := *p
		cp.runs = slices.Clone(p.runs)
		cp.addrs = slices.Clone(p.addrs)
		n.byID[id] = &cp
		n.pools[cp.idx] = &cp
	}
	n.snapshot, n.lastPool = nil, nil
	n.keys = slices.Clone(m.keys)
	n.ne = m.ne.Clone()
	n.grossOf = m.grossOf.Clone()
	n.freeKey = m.freeKey.Clone()
	return &n, nil
}

// CloneManager implements mm.Cloner for the phase-dispatching manager:
// every atomic per-phase manager is cloned and the handle slots, which
// name managers by position, route to the clones, never the original's.
// It fails if a child manager cannot be cloned (BuildGlobal only installs
// Custom managers, which can).
func (g *Global) CloneManager() (mm.Manager, error) {
	n := &Global{
		name:         g.name,
		order:        slices.Clone(g.order),
		mgrs:         make([]mm.Manager, len(g.mgrs)),
		slots:        slices.Clone(g.slots),
		free:         slices.Clone(g.free),
		maxFootprint: g.maxFootprint,
		failed:       g.failed,
	}
	oldToNew := make(map[mm.Manager]mm.Manager, len(g.mgrs))
	for i, old := range g.mgrs {
		// One manager may serve several phases; its clone must too, or
		// the copy would split state the original shares.
		if cm, ok := oldToNew[old]; ok {
			n.mgrs[i] = cm
			continue
		}
		ph := g.order[i]
		c, ok := old.(mm.Cloner)
		if !ok {
			return nil, fmt.Errorf("core: %s: phase %d manager %s is not cloneable", g.name, ph, old.Name())
		}
		cm, err := c.CloneManager()
		if err != nil {
			return nil, fmt.Errorf("core: %s: phase %d: %w", g.name, ph, err)
		}
		n.mgrs[i] = cm
		oldToNew[old] = cm
	}
	return n, nil
}

// StateChecksum implements mm.Checksummer: the per-phase managers'
// checksums in phase order, then every handle slot (its manager named by
// phase, not pointer, so a clone and its original agree) and the free
// slot stack, which decides the handles handed out next.
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

var (
	_ mm.Cloner      = (*Custom)(nil)
	_ mm.Checksummer = (*Custom)(nil)
	_ mm.Cloner      = (*Global)(nil)
	_ mm.Checksummer = (*Global)(nil)
)
