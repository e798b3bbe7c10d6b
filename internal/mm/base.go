package mm

import (
	"dmmkit/internal/block"
	"dmmkit/internal/heap"
)

// Base is the policy-free half of a manager over one simulated heap: the
// heap, read through the manager's block layout; the counters; and the
// live-payload table. A manager embeds it and keeps only its policy
// state, Alloc, Free, Name and a CloneManager that copies that state.
// Base provides Heap, Footprint, MaxFootprint and StateChecksum (all
// in-band manager state lives in the heap, so its digest is the heap's)
// and CloneBase, the deep copy of its own fields. Alloc and Free call
// Live's Add and Remove and the Accounting notes directly.
type Base struct {
	Accounting
	// V binds the manager's block layout to its heap. V.H is the only
	// pointer to the heap. Obstacks keep no block tags and use the zero
	// Layout.
	V block.View
	// Live maps every live payload to its requested size; managers that
	// find live blocks another way (Obstacks' stack) leave it empty.
	Live Shadow
}

// NewBase returns the base of an empty manager owning h with block
// layout l. It panics on an invalid layout, as block.NewView does.
func NewBase(h *heap.Heap, l block.Layout) Base {
	return Base{V: block.NewView(h, l), Live: NewShadow(h)}
}

// Heap exposes the simulated heap for tests and diagnostics.
func (b *Base) Heap() *heap.Heap { return b.V.H }

// Footprint implements Manager.
func (b *Base) Footprint() int64 { return b.V.H.Footprint() }

// MaxFootprint implements Manager.
func (b *Base) MaxFootprint() int64 { return b.V.H.MaxFootprint() }

// StateChecksum implements Checksummer by digesting the heap.
func (b *Base) StateChecksum() uint64 { return b.V.H.Checksum() }

// CloneBase returns a deep copy over a clone of the heap, for a
// manager's CloneManager: the copy and the original evolve
// independently.
func (b *Base) CloneBase() Base {
	return Base{
		Accounting: b.Accounting,
		V:          block.View{H: b.V.H.Clone(), L: b.V.L},
		Live:       b.Live.Clone(),
	}
}
