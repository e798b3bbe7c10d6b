package region

import (
	"dmmkit/internal/block"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

// header layout: word0 = gross size, word1 = region id (oversize blocks
// use region id ^owned bit). Eight bytes total.
const (
	hdrBytes    = 8
	oversizeBit = 1 << 31
)

// chunkBytes caps how much a region requests from the system at once;
// small block sizes are carved from chunks of this size, large blocks are
// requested one at a time.
const chunkBytes = 16 << 10

var layout = block.Layout{Tags: block.TagsHeader, Info: block.InfoSize | block.InfoPrevSize, Links: block.LinksSingle}

// Sizer chooses the fixed block size for a region given its tag and the
// first request seen. A manually designed region manager sizes each region
// for its worst-case request; the experiment harness derives that from the
// application profile.
type Sizer func(tag int, firstReq int64) int64

// DefaultSizer rounds the first request of a region up to the next power
// of two — a common rule of thumb when no profile is available.
func DefaultSizer(_ int, firstReq int64) int64 {
	s := int64(8)
	for s < firstReq {
		s <<= 1
	}
	return s
}

type regionState struct {
	blockSize int64     // fixed payload capacity per block
	free      heap.Addr // singly linked free list
}

// Manager is a region/partition allocator over a simulated heap.
type Manager struct {
	mm.Base
	sizer   Sizer
	regions map[int]*regionState
}

// New returns a region manager owning h. If sizer is nil, DefaultSizer is
// used.
func New(h *heap.Heap, sizer Sizer) *Manager {
	if sizer == nil {
		sizer = DefaultSizer
	}
	return &Manager{Base: mm.NewBase(h, layout), sizer: sizer, regions: make(map[int]*regionState)}
}

// Name implements mm.Manager.
func (*Manager) Name() string { return "Regions" }

func (m *Manager) gross(payload int64) int64 {
	g := payload + hdrBytes
	if g < hdrBytes+8 {
		g = hdrBytes + 8
	}
	return (g + heap.Align - 1) &^ (heap.Align - 1)
}

// Alloc implements mm.Manager.
func (m *Manager) Alloc(req mm.Request) (heap.Addr, error) {
	if req.Size <= 0 {
		m.NoteFail()
		return heap.Nil, mm.ErrBadSize
	}
	r := m.regions[req.Tag]
	if r == nil {
		r = &regionState{blockSize: m.sizer(req.Tag, req.Size)}
		if r.blockSize < req.Size {
			r.blockSize = req.Size
		}
		m.regions[req.Tag] = r
	}
	m.Charge(mm.CostIndex)
	if req.Size > r.blockSize {
		// The region was sized too small for this request: hand out a
		// dedicated oversize block, as an embedded designer would
		// special-case. It bypasses the region free list.
		return m.allocOversize(req)
	}
	gross := m.gross(r.blockSize)
	b := r.free
	if b == heap.Nil {
		n := chunkBytes / gross
		if n < 1 {
			n = 1
		}
		start, err := m.V.H.Sbrk(gross * n)
		if err != nil {
			m.NoteFail()
			return heap.Nil, err
		}
		m.Charge(mm.CostSbrk)
		for i := n - 1; i >= 0; i-- {
			nb := start + heap.Addr(i*gross)
			m.V.SetHeader(nb, gross, false, false)
			m.V.H.PutU32(nb+4, uint32(req.Tag))
			m.V.SetNextFree(nb, r.free)
			r.free = nb
			m.Charge(mm.CostLink)
		}
		b = r.free
	}
	r.free = m.V.NextFree(b)
	m.Charge(mm.CostProbe + mm.CostUnlink)
	p := m.V.Payload(b)
	m.Live.Add(p, req.Size)
	m.NoteAlloc(req.Size, gross)
	return p, nil
}

func (m *Manager) allocOversize(req mm.Request) (heap.Addr, error) {
	gross := m.gross(req.Size)
	b, err := m.V.H.Sbrk(gross)
	if err != nil {
		m.NoteFail()
		return heap.Nil, err
	}
	m.Charge(mm.CostSbrk)
	m.V.SetHeader(b, gross, false, false)
	m.V.H.PutU32(b+4, uint32(req.Tag)|oversizeBit)
	p := m.V.Payload(b)
	m.Live.Add(p, req.Size)
	m.NoteAlloc(req.Size, gross)
	return p, nil
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
	word1 := m.V.H.U32(b + 4)
	if word1&oversizeBit != 0 {
		// Oversize blocks are simply abandoned (their memory is not
		// reusable by the fixed-size lists); a real design would avoid
		// creating them. They still count as freed for the stats.
		m.NoteFree(req, gross)
		return nil
	}
	r := m.regions[int(word1)]
	if r == nil {
		m.NoteFail()
		return mm.ErrBadFree
	}
	m.V.SetNextFree(b, r.free)
	r.free = b
	m.Charge(mm.CostIndex + mm.CostLink)
	m.NoteFree(req, gross)
	return nil
}

// RegionBlockSize reports the fixed block size of the region for tag, or 0
// if the region does not exist yet.
func (m *Manager) RegionBlockSize(tag int) int64 {
	if r := m.regions[tag]; r != nil {
		return r.blockSize
	}
	return 0
}

// CloneManager implements mm.Cloner. The per-tag region states are
// copied; the Sizer is shared, which is safe because sizing policies are
// pure functions of their arguments (ProfileSizer closes over a profile
// it only reads).
func (m *Manager) CloneManager() (mm.Manager, error) {
	n := *m
	n.Base = m.CloneBase()
	if m.regions != nil {
		n.regions = make(map[int]*regionState, len(m.regions))
		for k, r := range m.regions {
			cr := *r
			n.regions[k] = &cr
		}
	}
	return &n, nil
}

var (
	_ mm.Manager     = (*Manager)(nil)
	_ mm.Cloner      = (*Manager)(nil)
	_ mm.Checksummer = (*Manager)(nil)
)
