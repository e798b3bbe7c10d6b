package obstack

import (
	"encoding/binary"
	"sort"

	"dmmkit/internal/block"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

// chunkHdr is the in-band chunk header: a 4-byte size field plus 4 bytes
// of padding to keep payloads aligned (GNU obstacks keep a chunk limit and
// next pointer; the simulated heap tracks chunk extents, so one word
// suffices for realism of overhead).
const chunkHdr = 8

// DefaultChunkSize is the system allocation granularity, matching the GNU
// default of 4096 bytes.
const DefaultChunkSize = 4096

type object struct {
	payload heap.Addr
	size    int64 // requested bytes
	gross   int64 // aligned bytes consumed in the chunk
	chunk   int   // index into chunks at allocation time
	dead    bool
}

type chunk struct {
	base heap.Addr
	size int64
	off  int64 // bump offset
}

// Manager is an obstack allocator over a simulated heap.
type Manager struct {
	mm.Base
	chunkSize int64
	chunks    []chunk
	// objs is the allocation stack; index 0 is the oldest. It is sorted
	// by payload address: objects bump upward within a chunk, a popped
	// object's space is reused only once everything above it is gone,
	// and the heap hands out every new chunk above the previous ones.
	objs []object
}

// New returns an obstack manager owning h with the given chunk size
// (DefaultChunkSize if 0).
func New(h *heap.Heap, chunkSize int64) *Manager {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Manager{Base: mm.NewBase(h, block.Layout{}), chunkSize: chunkSize}
}

// Name implements mm.Manager.
func (*Manager) Name() string { return "Obstacks" }

// Alloc implements mm.Manager.
func (m *Manager) Alloc(req mm.Request) (heap.Addr, error) {
	if req.Size <= 0 {
		m.NoteFail()
		return heap.Nil, mm.ErrBadSize
	}
	gross := (req.Size + heap.Align - 1) &^ (heap.Align - 1)
	ci := len(m.chunks) - 1
	if ci < 0 || m.chunks[ci].off+gross > m.chunks[ci].size {
		// Need a new chunk; big objects get a chunk of their own size.
		sz := m.chunkSize
		if gross+chunkHdr > sz {
			sz = gross + chunkHdr
		}
		base, err := m.V.H.Map(sz)
		if err != nil {
			m.NoteFail()
			return heap.Nil, err
		}
		m.Charge(mm.CostSbrk)
		// Chunks are mapped segments, which the heap's word accessors
		// do not serve: the header goes through the checked Bytes path.
		binary.LittleEndian.PutUint32(m.V.H.Bytes(base, 4), uint32(sz))
		m.chunks = append(m.chunks, chunk{base: base, size: m.V.H.SegmentSize(base), off: chunkHdr})
		ci = len(m.chunks) - 1
	}
	c := &m.chunks[ci]
	p := c.base + heap.Addr(c.off)
	c.off += gross
	m.Charge(mm.CostProbe + mm.CostHeader)
	m.objs = append(m.objs, object{payload: p, size: req.Size, gross: gross, chunk: ci})
	m.NoteAlloc(req.Size, gross)
	return p, nil
}

// Free implements mm.Manager. LIFO frees release space immediately;
// out-of-order frees are deferred until the object becomes the top of the
// stack.
func (m *Manager) Free(p heap.Addr) error {
	i, ok := m.find(p)
	if !ok {
		m.NoteFail()
		return mm.ErrBadFree
	}
	m.objs[i].dead = true
	m.NoteFree(m.objs[i].size, m.objs[i].gross)
	m.Charge(mm.CostHeader)
	m.pop()
	return nil
}

// find returns the stack position of the live object at payload p,
// trying the top of the stack first (obstack frees are mostly LIFO) and
// otherwise binary-searching the address-sorted stack.
func (m *Manager) find(p heap.Addr) (int, bool) {
	i := len(m.objs) - 1
	if i < 0 || m.objs[i].payload != p {
		i = sort.Search(len(m.objs), func(j int) bool { return m.objs[j].payload >= p })
	}
	if i == len(m.objs) || m.objs[i].payload != p || m.objs[i].dead {
		return 0, false
	}
	return i, true
}

// pop unwinds dead objects from the top of the stack, rolling back bump
// offsets and returning emptied chunks to the system.
func (m *Manager) pop() {
	for len(m.objs) > 0 && m.objs[len(m.objs)-1].dead {
		o := m.objs[len(m.objs)-1]
		m.objs = m.objs[:len(m.objs)-1]
		// Roll the owning chunk's offset back to the object base. Any
		// chunks allocated after it are necessarily empty now.
		for len(m.chunks)-1 > o.chunk {
			last := m.chunks[len(m.chunks)-1]
			if err := m.V.H.Unmap(last.base); err != nil {
				panic(err) // chunk bookkeeping corrupt: programmer error
			}
			m.Charge(mm.CostTrim)
			m.chunks = m.chunks[:len(m.chunks)-1]
		}
		m.chunks[o.chunk].off = int64(o.payload - m.chunks[o.chunk].base)
		m.Charge(mm.CostProbe)
	}
	// If the top chunk is empty and not the only one, release it too.
	for len(m.chunks) > 0 && m.chunks[len(m.chunks)-1].off == chunkHdr && len(m.objs) == 0 {
		last := m.chunks[len(m.chunks)-1]
		if err := m.V.H.Unmap(last.base); err != nil {
			panic(err)
		}
		m.Charge(mm.CostTrim)
		m.chunks = m.chunks[:len(m.chunks)-1]
	}
}

// DeadBytes reports bytes held by dead-but-unreclaimed objects: the
// obstack penalty under non-LIFO frees.
func (m *Manager) DeadBytes() int64 {
	var n int64
	for _, o := range m.objs {
		if o.dead {
			n += o.gross
		}
	}
	return n
}

// Depth returns the current object-stack depth (live + deferred dead).
func (m *Manager) Depth() int { return len(m.objs) }

// CloneManager implements mm.Cloner. Chunks and objects are value
// types, so copying the slices suffices.
func (m *Manager) CloneManager() (mm.Manager, error) {
	n := *m
	n.Base = m.CloneBase()
	n.chunks = append([]chunk(nil), m.chunks...)
	n.objs = append([]object(nil), m.objs...)
	return &n, nil
}

var (
	_ mm.Manager     = (*Manager)(nil)
	_ mm.Cloner      = (*Manager)(nil)
	_ mm.Checksummer = (*Manager)(nil)
)
