package kingsley

import (
	"fmt"
	"math/bits"

	"dmmkit/internal/block"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

const (
	minGross = 16 // smallest block handed out (header + 12 payload bytes)
	maxClass = 26 // largest class: 64 MiB blocks
)

// chunkBytes is the granularity of requests to the system for small
// classes; classes larger than this are requested one block at a time.
const chunkBytes = 4096

var layout = block.Layout{Tags: block.TagsHeader, Info: block.InfoSize, Links: block.LinksSingle}

// Manager is a Kingsley power-of-two allocator over a simulated heap.
type Manager struct {
	mm.Base
	free [maxClass + 1]heap.Addr // free-list heads per class (log2 gross)
	// nonEmpty has bit c set iff free[c] != Nil — the segregated-fit
	// nonempty-bin bitmap (dlmalloc's binmap). Kingsley never scans
	// across classes, so the bitmap serves the empty-class branch and
	// diagnostics; it is out-of-band and does not change placement,
	// footprint, or work accounting.
	nonEmpty uint32
}

// setFreeHead writes a class free-list head, keeping nonEmpty in sync.
func (m *Manager) setFreeHead(c int, b heap.Addr) {
	m.free[c] = b
	if b == heap.Nil {
		m.nonEmpty &^= 1 << c
	} else {
		m.nonEmpty |= 1 << c
	}
}

// New returns an empty Kingsley manager owning h.
func New(h *heap.Heap) *Manager {
	return &Manager{Base: mm.NewBase(h, layout)}
}

// Name implements mm.Manager.
func (*Manager) Name() string { return "Kingsley" }

// classFor returns the class index (log2 of gross size) for a request.
func classFor(n int64) int {
	gross := n + layout.HeaderBytes()
	if gross < minGross {
		gross = minGross
	}
	return 64 - bits.LeadingZeros64(uint64(gross-1))
}

// Alloc implements mm.Manager.
func (m *Manager) Alloc(req mm.Request) (heap.Addr, error) {
	if req.Size <= 0 {
		m.NoteFail()
		return heap.Nil, mm.ErrBadSize
	}
	c := classFor(req.Size)
	if c > maxClass {
		m.NoteFail()
		return heap.Nil, fmt.Errorf("%w: request %d exceeds largest class", mm.ErrOutOfMemory, req.Size)
	}
	m.Charge(mm.CostIndex)
	b := m.free[c]
	if m.nonEmpty&(1<<c) == 0 {
		var err error
		b, err = m.refill(c)
		if err != nil {
			m.NoteFail()
			return heap.Nil, err
		}
	}
	m.setFreeHead(c, m.V.NextFree(b))
	m.Charge(mm.CostProbe + mm.CostUnlink)
	gross := int64(1) << c
	// Every block on the class-c list already carries a class-c header,
	// written at refill time and never cleared by Free, so the header
	// rewrite is byte-idempotent and elided; its work charge remains.
	m.Charge(mm.CostHeader)
	p := m.V.Payload(b)
	m.Live.Add(p, req.Size)
	m.NoteAlloc(req.Size, gross)
	return p, nil
}

// refill carves a new extent from the system into blocks of class c and
// returns one of them, pushing the rest onto the class free list.
func (m *Manager) refill(c int) (heap.Addr, error) {
	gross := int64(1) << c
	extent := gross
	if extent < chunkBytes {
		extent = chunkBytes
	}
	start, err := m.V.H.Sbrk(extent)
	if err != nil {
		return heap.Nil, err
	}
	m.Charge(mm.CostSbrk)
	// Split the extent into blocks; push all but the first.
	for off := gross; off+gross <= extent; off += gross {
		b := start + heap.Addr(off)
		m.V.SetHeader(b, gross, false, false)
		m.V.SetNextFree(b, m.free[c])
		m.setFreeHead(c, b)
		m.Charge(mm.CostLink)
	}
	m.V.SetHeader(start, gross, false, false)
	m.V.SetNextFree(start, m.free[c])
	m.setFreeHead(c, start)
	m.Charge(mm.CostLink)
	return start, nil
}

// Free implements mm.Manager.
func (m *Manager) Free(p heap.Addr) error {
	req, ok := m.Live.Remove(p)
	if !ok {
		m.NoteFail()
		return mm.ErrBadFree
	}
	b := m.V.Block(p)
	gross := m.V.Size(b)
	c := 64 - bits.LeadingZeros64(uint64(gross-1))
	m.Charge(mm.CostIndex)
	m.V.SetNextFree(b, m.free[c])
	m.setFreeHead(c, b)
	m.Charge(mm.CostLink)
	m.NoteFree(req, gross)
	return nil
}

// FreeBlocks returns the number of blocks on the class-c free list, for
// tests and fragmentation diagnostics.
func (m *Manager) FreeBlocks(c int) int {
	if m.nonEmpty&(1<<c) == 0 {
		return 0
	}
	n := 0
	for b := m.free[c]; b != heap.Nil; b = m.V.NextFree(b) {
		n++
	}
	return n
}

// CloneManager implements mm.Cloner. The free-list heads and bin
// bitmap are plain values, so only the base needs a deep copy.
func (m *Manager) CloneManager() (mm.Manager, error) {
	n := *m
	n.Base = m.CloneBase()
	return &n, nil
}

var (
	_ mm.Manager     = (*Manager)(nil)
	_ mm.Cloner      = (*Manager)(nil)
	_ mm.Checksummer = (*Manager)(nil)
)
