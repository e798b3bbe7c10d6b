package core

import (
	"errors"

	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
	"dmmkit/internal/profile"
	"dmmkit/internal/registry"
)

func init() {
	// "custom" is the paper's manager (Sec. 3.3): the methodology applied
	// per behavioural phase and composed into a Global. When the profile
	// has one phase or its phases share memory, as in all three built-in
	// workloads, the composition has one member and "custom" is that
	// atomic manager itself. It owns its heaps, so the caller-provided
	// heap is unused.
	registry.RegisterManager("custom", func(_ *heap.Heap, p *profile.Profile) (mm.Manager, error) {
		if p == nil {
			return nil, errors.New("core: the custom manager requires a trace profile")
		}
		g, _, err := BuildGlobal("custom", p)
		if err != nil {
			return nil, err
		}
		if len(g.mgrs) == 1 {
			return g.mgrs[0], nil
		}
		return g, nil
	})
	// "designed" is a single atomic manager from one methodology walk over
	// the whole profile, without the per-phase composition.
	registry.RegisterManager("designed", func(h *heap.Heap, p *profile.Profile) (mm.Manager, error) {
		if p == nil {
			return nil, errors.New("core: the designed manager requires a trace profile")
		}
		if h == nil {
			h = heap.New(heap.Config{})
		}
		return DesignFor(p).Build(h)
	})
}
