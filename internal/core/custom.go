package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"dmmkit/internal/bitset"
	"dmmkit/internal/block"
	"dmmkit/internal/dspace"
	"dmmkit/internal/heap"
	"dmmkit/internal/mm"
)

// Custom is an atomic DM manager: one point of the design space realized
// over a simulated heap. Its behaviour is entirely determined by the
// decision vector and params it was built from.
type Custom struct {
	mm.Base
	vec dspace.Vector
	par Params

	tagged   bool // layout carries in-band metadata (A3 != none)
	unsorted bool // free lists are LIFO or FIFO, mirrored in pool.ents

	keys  []poolKey  // sorted by (phase, class)
	pools []*pool    // parallel to keys
	byID  []*pool    // indexed by pool id: creation order
	ne    bitset.Set // bit per keys position, set iff that pool's head != Nil

	snapshot []*pool // consolidate's copy of pools
	lastPool *pool   // the pool poolFor found last

	top       heap.Addr // wilderness chunk (tagged variable managers)
	heapStart heap.Addr

	phase int // current behavioural phase (B3)
	frees int // frees since last deferred consolidation

	// Out-of-band side tables, indexed by block address over the break
	// region. grossOf holds untagged blocks' gross sizes in units of
	// heap.Align; freeKey holds the id+1 of the pool each binned free
	// block sits in, kept only when recordsFreePools. Direct blocks live
	// in mapped segments, whose sizes the heap already records.
	grossOf mm.AddrMap
	freeKey mm.AddrMap

	// Unsorted pools' mirrors: the slots a coalescing manager's free-block
	// table names (slots[v-1] for value v), the released ones, and what
	// the mirrors did. See mirror.go.
	slots     []mirrorSlot
	freeSlots []uint32
	mirrored  mirrorStats

	name string
}

// NewCustom builds the atomic manager described by vec and par over h. It
// returns an error when vec violates the design-space interdependencies.
func NewCustom(h *heap.Heap, vec dspace.Vector, par Params) (*Custom, error) {
	if err := dspace.Validate(&vec); err != nil {
		return nil, err
	}
	par.defaults(vec)
	if !sort.SliceIsSorted(par.ClassSizes, func(i, j int) bool { return par.ClassSizes[i] < par.ClassSizes[j] }) {
		return nil, fmt.Errorf("core: ClassSizes must be ascending")
	}
	for _, s := range par.ClassSizes {
		if s <= 0 || s%heap.Align != 0 {
			return nil, fmt.Errorf("core: class size %d is not a positive multiple of %d", s, heap.Align)
		}
	}
	lay := layoutFor(vec)
	return &Custom{
		Base:     mm.NewBase(h, lay),
		vec:      vec,
		par:      par,
		tagged:   lay.Tags != block.TagsNone,
		unsorted: vec.BlockStructure != dspace.SizeSorted && vec.FreeOrder != dspace.AddressOrder,
		grossOf:  mm.NewAddrMap(h),
		freeKey:  mm.NewAddrMap(h),
		name:     "Custom",
	}, nil
}

// layoutFor derives the in-band block layout from the A1/A3/A4 decisions.
func layoutFor(vec dspace.Vector) block.Layout {
	var l block.Layout
	switch vec.BlockTags {
	case dspace.NoTags:
		l.Tags = block.TagsNone
	case dspace.HeaderTag:
		l.Tags = block.TagsHeader
	default:
		l.Tags = block.TagsBoth
	}
	switch vec.RecordedInfo {
	case dspace.RecordSize:
		l.Info = block.InfoSize
	case dspace.RecordSizeStatus:
		l.Info = block.InfoSize | block.InfoStatus
	case dspace.RecordSizeStatusPrev:
		l.Info = block.InfoSize | block.InfoStatus | block.InfoPrevSize
	}
	if vec.BlockStructure == dspace.SinglyLinked {
		l.Links = block.LinksSingle
	} else {
		l.Links = block.LinksDouble
	}
	return l
}

// Name implements mm.Manager.
func (m *Custom) Name() string { return m.name }

// SetName overrides the display name (used by experiments to label derived
// managers).
func (m *Custom) SetName(s string) { m.name = s }

// Vector returns the decision vector the manager realizes.
func (m *Custom) Vector() dspace.Vector { return m.vec }

// ParamsUsed returns the numeric parameters in effect (after defaults).
func (m *Custom) ParamsUsed() Params { return m.par }

func (m *Custom) hasStatus() bool   { return m.V.L.Info&block.InfoStatus != 0 }
func (m *Custom) hasPrevSize() bool { return m.V.L.Info&block.InfoPrevSize != 0 }

func (m *Custom) canSplit() bool {
	return m.vec.Flex == dspace.SplitOnly || m.vec.Flex == dspace.SplitCoalesce
}

func (m *Custom) canCoalesce() bool {
	return m.vec.Flex == dspace.CoalesceOnly || m.vec.Flex == dspace.SplitCoalesce
}

// recordsFreePools reports whether the free-block table records each
// binned block's pool. Only coalescing looks a free block's pool up by
// address (unlinkKnownFree), and a manager coalesces iff D2 is not never.
func (m *Custom) recordsFreePools() bool { return m.vec.CoalesceWhen != dspace.Never }

// sizeOf returns the gross size of block b from its header or, for
// untagged layouts, from the partition table. It cannot inline: any call
// costs the inliner 57 of its 80 and the header read 32, so the per-probe
// sites read through headerSize instead.
func (m *Custom) sizeOf(b heap.Addr) int64 {
	if sz, ok := m.headerSize(b); ok {
		return sz
	}
	return m.untaggedSize(b)
}

// headerSize returns the gross size recorded in block b's header, with
// ok false for untagged layouts, which have none (see untaggedSize). It
// makes no call, so a tagged manager's fit probes read the header in
// line.
func (m *Custom) headerSize(b heap.Addr) (size int64, ok bool) {
	if !m.tagged {
		return 0, false
	}
	return m.V.Size(b), true
}

// untaggedSize returns an untagged block's gross size from the partition
// table.
func (m *Custom) untaggedSize(b heap.Addr) int64 {
	units, _ := m.grossOf.Get(b)
	return int64(units) * heap.Align
}

// invariant reports a corrupted manager state at address a: a bug,
// never a property of the trace. The exploration engine records the
// panic against the candidate's vector. It stays out of line so its
// formatting never weighs on the hot paths that guard it.
//
//go:noinline
func (m *Custom) invariant(a heap.Addr, problem string) {
	panic(fmt.Sprintf("core: %s [%v]: %#x %s", m.name, m.vec, a, problem))
}

// isClassSize reports whether s is one of the configured class sizes.
func (m *Custom) isClassSize(s int64) bool {
	i := sort.Search(len(m.par.ClassSizes), func(i int) bool { return m.par.ClassSizes[i] >= s })
	return i < len(m.par.ClassSizes) && m.par.ClassSizes[i] == s
}

// quantize applies the A2/B4 size discipline to a base gross size,
// returning the effective gross size, the pool class (0 = the any-range
// pool) and whether the request must be served by a dedicated block
// because it exceeds every class.
func (m *Custom) quantize(base int64) (gross, class int64, dedicated bool) {
	// A2: the block sizes that exist at all.
	switch m.vec.BlockSizes {
	case dspace.OneBlockSize:
		one := m.par.ClassSizes[0]
		if base > one {
			return base, 0, true
		}
		base = one
	case dspace.ManyFixedSizes:
		i := sort.Search(len(m.par.ClassSizes), func(i int) bool { return m.par.ClassSizes[i] >= base })
		if i == len(m.par.ClassSizes) {
			return base, 0, true
		}
		base = m.par.ClassSizes[i]
	}
	// B4: how pools partition those sizes.
	switch m.vec.PoolRange {
	case dspace.AnyRange:
		return base, 0, false
	case dspace.Pow2Classes:
		g := pow2ceil(base)
		return g, g, false
	case dspace.ExactClasses:
		return base, base, false
	default: // FixedSizePerPool
		i := sort.Search(len(m.par.ClassSizes), func(i int) bool { return m.par.ClassSizes[i] >= base })
		if i == len(m.par.ClassSizes) {
			return base, 0, true
		}
		return m.par.ClassSizes[i], m.par.ClassSizes[i], false
	}
}

// floorClass maps an arbitrary gross size to the pool class that stores
// it: blocks of intermediate size (split/coalesce results) live in the
// largest class not exceeding them.
func (m *Custom) floorClass(gross int64) int64 {
	switch m.vec.PoolRange {
	case dspace.AnyRange:
		return 0
	case dspace.Pow2Classes:
		return pow2floor(gross)
	case dspace.ExactClasses:
		return gross
	default: // FixedSizePerPool
		i := sort.Search(len(m.par.ClassSizes), func(i int) bool { return m.par.ClassSizes[i] > gross })
		if i == 0 {
			return m.par.ClassSizes[0]
		}
		return m.par.ClassSizes[i-1]
	}
}

func pow2ceil(n int64) int64 {
	if n <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(uint64(n-1)))
}

func pow2floor(n int64) int64 {
	if n <= 0 {
		return 1
	}
	return 1 << (63 - bits.LeadingZeros64(uint64(n)))
}

func (m *Custom) keyFor(phase int, class int64) poolKey {
	if m.vec.PoolPhase != dspace.PoolsPerPhase {
		phase = 0
	}
	return poolKey{phase: phase, class: class}
}

// phaseOf returns the phase pools a block belongs to. Per-phase pool
// division assumes phases are temporally disjoint (true of the paper's
// applications), so the current phase is used.
func (m *Custom) phaseOf(heap.Addr) int {
	if m.vec.PoolPhase != dspace.PoolsPerPhase {
		return 0
	}
	return m.phase
}

// Alloc implements mm.Manager.
func (m *Custom) Alloc(req mm.Request) (heap.Addr, error) {
	if req.Size <= 0 {
		m.NoteFail()
		return heap.Nil, mm.ErrBadSize
	}
	m.phase = req.Phase
	base := m.V.L.GrossFor(req.Size)
	if m.par.DirectThreshold > 0 && base >= m.par.DirectThreshold {
		return m.allocDirect(req)
	}
	gross, class, dedicated := m.quantize(base)
	if dedicated {
		return m.allocDedicated(req, gross)
	}
	m.Charge(mm.CostIndex)

	// Deferred-list exact reuse (D2=deferred): recycle an identically
	// sized deferred block without coalescing, as dlmalloc's fastbins do.
	if m.vec.CoalesceWhen == dspace.Deferred {
		if b := m.popDeferredExact(class, gross); b != heap.Nil {
			return m.sealAlloc(b, gross, req), nil
		}
	}

	// Search the pools. The block handed back may be larger than gross
	// when splitting is not allowed; the whole block is then consumed
	// (internal fragmentation, visible in GrossLive).
	if b, have, ok := m.allocFromPools(req.Phase, class, gross); ok {
		return m.sealAlloc(b, have, req), nil
	}

	// Refill from the system.
	b, have, err := m.refill(req.Phase, class, gross)
	if err != nil {
		m.NoteFail()
		return heap.Nil, err
	}
	return m.sealAlloc(b, have, req), nil
}

// allocFromPools searches the pool for class and, when splitting is
// available, every larger class in the same phase. Found blocks are
// unlinked and split down to gross when policy allows; the returned size
// is the gross size actually consumed.
func (m *Custom) allocFromPools(phase int, class int64, gross int64) (heap.Addr, int64, bool) {
	k := m.keyFor(phase, class)
	try := func(pl *pool) (heap.Addr, int64, bool) {
		r := m.searchPool(pl, gross)
		if !r.ok {
			return heap.Nil, 0, false
		}
		if m.recordsFreePools() {
			m.freeKey.Take(r.b)
		}
		m.unlink(pl, r.b, r.sprev, r.at)
		have := r.size
		if have > gross && m.maySplit(have, gross) {
			m.split(r.b, have, gross)
			have = gross
		}
		return r.b, have, true
	}
	own := m.poolFor(k)
	if b, have, ok := try(own); ok {
		return b, have, true
	}
	if m.vec.PoolRange == dspace.AnyRange || !m.canSplit() {
		return heap.Nil, 0, false
	}
	// Segregated fit with splitting: visit larger classes in this phase.
	// The nonempty bitset jumps straight to pools that hold blocks; the
	// pools skipped over are charged exactly what the plain walk's
	// poolFor lookups would have cost, so the work metric is unchanged.
	// Class keys are nonnegative, so the next phase starts at the first
	// key not below (phase+1, 0).
	i0 := own.idx
	phaseEnd := m.keyPos(poolKey{phase: k.phase + 1})
	for cur := i0; ; {
		j := m.ne.NextGE(cur)
		if j < 0 || j >= phaseEnd {
			m.chargeSkippedPools(cur, phaseEnd, i0)
			return heap.Nil, 0, false
		}
		if m.keys[j].class <= class {
			// The exact-class pool: the walk skips it without a lookup.
			cur = j + 1
			continue
		}
		m.chargeSkippedPools(cur, j, i0)
		m.chargeLookup(j)
		if b, have, ok := try(m.pools[j]); ok {
			return b, have, true
		}
		cur = j + 1
	}
}

// chargeSkippedPools accounts the poolFor lookups a linear walk over key
// positions [from, to) would have charged for pools the bitset let us skip
// (all empty). Position exact — the request's own class — is excluded:
// the walk skips it without a lookup.
func (m *Custom) chargeSkippedPools(from, to, exact int) {
	if from >= to {
		return
	}
	n := int64(to - from)
	if exact >= from && exact < to {
		n--
	}
	if n <= 0 {
		return
	}
	if m.vec.PoolStruct == dspace.PoolArray {
		m.ChargeN(mm.CostIndex, n)
	} else {
		// A pool-list lookup of the key at position p costs p+1 probes.
		sum := (int64(to)*(int64(to)+1) - int64(from)*(int64(from)+1)) / 2
		if exact >= from && exact < to {
			sum -= int64(exact) + 1
		}
		m.ChargeN(mm.CostProbe, sum)
	}
}

// popDeferredExact recycles an exact-size block from the deferred list of
// the class pool, if any.
func (m *Custom) popDeferredExact(class, gross int64) heap.Addr {
	pl := m.poolFor(m.keyFor(m.phase, class))
	var prev heap.Addr
	for b := pl.deferred; b != heap.Nil; b = m.V.NextFree(b) {
		m.Charge(mm.CostProbe)
		sz, ok := m.headerSize(b)
		if !ok {
			sz = m.untaggedSize(b)
		}
		if sz == gross {
			if prev == heap.Nil {
				pl.deferred = m.V.NextFree(b)
			} else {
				m.V.SetNextFree(prev, m.V.NextFree(b))
			}
			pl.nDeferred--
			m.Charge(mm.CostUnlink)
			return b
		}
		prev = b
	}
	return heap.Nil
}

// refill obtains fresh memory: flexible managers consolidate and carve
// from the wilderness; rigid (no-split) managers carve class-sized chunks.
// It returns the block and its gross size.
func (m *Custom) refill(phase int, class int64, gross int64) (heap.Addr, int64, error) {
	if m.vec.CoalesceWhen == dspace.Deferred {
		// Consolidate before going to the system, then retry the pools.
		m.consolidate()
		if b, have, ok := m.allocFromPools(phase, class, gross); ok {
			return b, have, nil
		}
	}
	if m.tagged && m.canSplit() {
		b, err := m.carveTop(gross)
		return b, gross, err
	}
	if class == 0 {
		// Variable sizes without splitting: dedicated exact extents.
		b, err := m.allocExtent(gross)
		return b, gross, err
	}
	// Chunked carve: one system request yields several class blocks.
	n := m.par.ChunkBytes / gross
	if n < 1 {
		n = 1
	}
	start, err := m.V.H.Sbrk(n * gross)
	if err != nil {
		return heap.Nil, 0, err
	}
	m.Charge(mm.CostSbrk)
	if m.heapStart == heap.Nil {
		m.heapStart = start
	}
	pl := m.poolFor(m.keyFor(phase, class))
	for i := n - 1; i >= 1; i-- {
		b := start + heap.Addr(i*gross)
		m.initBlock(b, gross, i > 0)
		m.insertFree(pl, b, gross)
	}
	m.initBlock(start, gross, false)
	return start, gross, nil
}

// initBlock writes the header (or partition-table entry) for a fresh free
// block. prevFree hints the prevUsed bit for layouts that track status.
func (m *Custom) initBlock(b heap.Addr, gross int64, prevFree bool) {
	if !m.tagged {
		if !m.grossOf.Put(b, uint32(gross/heap.Align)) {
			m.invariant(b, "does not fit the partition table")
		}
		return
	}
	m.V.SetHeader(b, gross, false, !prevFree)
	m.writeNeighborInfo(b, gross)
	m.Charge(mm.CostHeader)
}

// allocExtent serves one block with a dedicated system extent (used by
// untagged/rigid variable managers and oversize dedicated requests).
func (m *Custom) allocExtent(gross int64) (heap.Addr, error) {
	b, err := m.V.H.Sbrk(gross)
	if err != nil {
		return heap.Nil, err
	}
	m.Charge(mm.CostSbrk)
	if m.heapStart == heap.Nil {
		m.heapStart = b
	}
	m.initBlock(b, gross, false)
	return b, nil
}

func (m *Custom) allocDedicated(req mm.Request, gross int64) (heap.Addr, error) {
	b, err := m.allocExtent(gross)
	if err != nil {
		m.NoteFail()
		return heap.Nil, err
	}
	return m.sealAlloc(b, gross, req), nil
}

// allocDirect serves a request from a dedicated mapped segment (the
// designed large-block pool; returned to the system on free).
func (m *Custom) allocDirect(req mm.Request) (heap.Addr, error) {
	gross := m.V.L.GrossFor(req.Size)
	base, err := m.V.H.Map(gross)
	if err != nil {
		m.NoteFail()
		return heap.Nil, err
	}
	m.Charge(mm.CostSbrk)
	segGross := m.V.H.SegmentSize(base)
	var p heap.Addr
	if m.tagged {
		m.V.SetSegmentHeader(base, gross)
		p = m.V.Payload(base)
	} else {
		p = base
	}
	m.Live.Add(p, req.Size)
	m.NoteAlloc(req.Size, segGross)
	return p, nil
}

// sealAlloc marks block b as used and returns its payload address.
func (m *Custom) sealAlloc(b heap.Addr, gross int64, req mm.Request) heap.Addr {
	var p heap.Addr
	if m.tagged {
		m.V.SetHeader(b, gross, true, m.prevUsedBit(b))
		if m.hasPrevSize() {
			next := b + heap.Addr(gross)
			if next < m.V.H.Brk() {
				m.V.SetPrevSize(next, gross)
			}
		}
		m.markNeighborOfFree(b, gross, true)
		m.Charge(mm.CostHeader)
		p = m.V.Payload(b)
	} else {
		p = b
	}
	m.Live.Add(p, req.Size)
	m.NoteAlloc(req.Size, gross)
	return p
}

// Free implements mm.Manager.
func (m *Custom) Free(p heap.Addr) error {
	req, ok := m.Live.Remove(p)
	if !ok {
		m.NoteFail()
		return mm.ErrBadFree
	}
	if !m.V.H.InSbrkRegion(p) {
		return m.freeDirect(p, req)
	}
	var b heap.Addr
	if m.tagged {
		b = m.V.Block(p)
	} else {
		b = p
	}
	gross := m.sizeOf(b)
	m.NoteFree(req, gross)

	switch m.vec.CoalesceWhen {
	case dspace.Always:
		m.V.SetUsed(b, false)
		if merged, size := m.coalesce(b, gross); size >= 0 {
			m.binFree(merged, size)
		}
		m.maybeTrim()
	case dspace.Deferred:
		m.deferFree(b, gross)
		m.frees++
		if m.frees%m.par.CoalesceEveryN == 0 {
			m.consolidate()
			m.maybeTrim()
		}
	default: // Never
		if m.tagged && m.hasStatus() {
			m.V.SetUsed(b, false)
			m.markNeighborOfFree(b, gross, false)
		}
		if m.tagged {
			m.writeNeighborInfo(b, gross) // keep boundary tags consistent
		}
		m.binFree(b, gross)
	}
	return nil
}

// freeDirect returns a direct block's segment to the system. Only direct
// blocks live outside the break region, each at the base of a segment
// that keeps its size until it is unmapped.
func (m *Custom) freeDirect(p heap.Addr, req int64) error {
	base := p
	if m.tagged {
		base = m.V.Block(p)
	}
	segGross := m.V.H.SegmentSize(base)
	if segGross == 0 {
		m.invariant(p, "is live outside the break region but not a direct block")
	}
	if err := m.V.H.Unmap(base); err != nil {
		m.NoteFail()
		return err
	}
	m.Charge(mm.CostTrim)
	m.NoteFree(req, segGross)
	return nil
}

// FreeBlocks returns the total count of blocks across all free lists
// (excluding deferred ones), for diagnostics.
func (m *Custom) FreeBlocks() int {
	n := 0
	for _, pl := range m.pools {
		n += pl.count
	}
	return n
}

// CheckInvariants validates the manager's free lists and the in-band
// structure of tagged managers. Every pool's in-band list must hold
// exactly its count of blocks, each recorded in the free-block table as
// that pool's when the manager records pools, with consistent back
// links, tail and rover, and in order when the pool is sorted, block for
// block as the pool's sorted-list index records it; every deferred list
// must hold its count. For tagged managers the sbrk region must then
// tile into valid blocks with consistent boundary info, where the listed
// blocks and the wilderness are the free ones. Chunk-carved heaps (no
// splitting) keep deliberately conservative prevUsed bits at chunk
// boundaries, so only the tiling is checked there.
func (m *Custom) CheckInvariants() error {
	listed, err := m.checkFreeLists()
	if err != nil {
		return err
	}
	if !m.tagged || m.heapStart == heap.Nil || m.heapStart >= m.V.H.Brk() {
		return nil
	}
	if !m.V.L.Info.Has(block.InfoSize) {
		return nil
	}
	if m.canSplit() {
		_, err := m.V.CheckRegion(m.heapStart, m.V.H.Brk(), func(b heap.Addr) bool {
			return listed[b] || b == m.top
		})
		return err
	}
	return m.V.Walk(m.heapStart, m.V.H.Brk(), func(block.BlockInfo) error { return nil })
}

// checkFreeLists walks every pool's free list and deferred list, bounded
// by the pool's counts so a cycle cannot hang it, and returns the set of
// blocks on the free lists.
func (m *Custom) checkFreeLists() (map[heap.Addr]bool, error) {
	listed := map[heap.Addr]bool{}
	for _, pl := range m.pools {
		fail := func(b heap.Addr, format string, args ...any) error {
			return m.poolError(pl, b, fmt.Sprintf(format, args...))
		}
		n := 0
		var prev heap.Addr
		var runs []sizeRun
		var addrs []heap.Addr
		roverListed := pl.rover == heap.Nil
		for b := pl.head; b != heap.Nil; prev, b = b, m.V.NextFree(b) {
			if n == pl.count {
				return nil, fail(b, "the list runs past the pool's count of %d", pl.count)
			}
			n++
			listed[b] = true
			if id, ok := m.freeKey.Get(b); m.recordsFreePools() && !m.unsorted && (!ok || int(id) != pl.id+1) {
				return nil, fail(b, "is listed but the free-block table names pool id+1 %d", id)
			}
			if m.doubleLinks() && m.V.PrevFree(b) != prev {
				return nil, fail(b, "back link %#x, want %#x", m.V.PrevFree(b), prev)
			}
			// Sorted lists are rebuilt into the index form as they are
			// walked, checking the order on the way.
			switch {
			case m.sizeSorted():
				size, last := m.V.Size(b), len(runs)-1
				switch {
				case last >= 0 && runs[last].size > size:
					return nil, fail(b, "is smaller than the block before it")
				case last >= 0 && runs[last].size == size:
					runs[last].last = b
					runs[last].n++
				default:
					runs = append(runs, sizeRun{size: size, first: b, last: b, n: 1})
				}
			case m.addressOrdered():
				if prev >= b && prev != heap.Nil {
					return nil, fail(b, "is out of address order after %#x", prev)
				}
				addrs = append(addrs, b)
			}
			if b == pl.rover {
				roverListed = true
				if pl.roverPrev != prev {
					return nil, fail(b, "is the rover, recorded after %#x, listed after %#x", pl.roverPrev, prev)
				}
			}
		}
		if n != pl.count {
			return nil, fail(pl.head, "the list holds %d of the pool's %d blocks", n, pl.count)
		}
		if pl.tail != prev {
			return nil, fail(pl.tail, "is the recorded tail, the list ends at %#x", prev)
		}
		if !slices.Equal(pl.runs, runs) || !slices.Equal(pl.addrs, addrs) {
			return nil, fail(pl.head, "the sorted-list index disagrees with the list")
		}
		if m.unsorted {
			if err := m.checkMirror(pl); err != nil {
				return nil, err
			}
		}
		if !roverListed {
			return nil, fail(pl.rover, "is the rover but not on the list")
		}
		if (pl.head != heap.Nil) != m.ne.Test(pl.idx) {
			return nil, fail(pl.head, "the nonempty bit disagrees with the list")
		}
		n = 0
		for b := pl.deferred; b != heap.Nil; b = m.V.NextFree(b) {
			if n == pl.nDeferred {
				return nil, fail(b, "the deferred list runs past its count of %d", pl.nDeferred)
			}
			n++
		}
		if n != pl.nDeferred {
			return nil, fail(pl.deferred, "the deferred list holds %d of its %d blocks", n, pl.nDeferred)
		}
	}
	if m.unsorted && m.recordsFreePools() && len(m.slots)-len(m.freeSlots) != len(listed) {
		return nil, fmt.Errorf("core: %s: %d mirror slots in use for %d listed blocks", m.name, len(m.slots)-len(m.freeSlots), len(listed))
	}
	return listed, nil
}

// checkMirror requires an unsorted pool's mirror to hold its in-band
// list, which checkFreeLists has walked and counted: the same blocks in
// the same order with their gross sizes, live entries at both ends of the
// window, well-formed runs of holes numbering the pool's count of them,
// the rover's entry, and for a coalescing manager each block's slot in
// the free-block table, naming this pool and the block's entry.
func (m *Custom) checkMirror(pl *pool) error {
	fail := func(b heap.Addr, format string, args ...any) error {
		return m.poolError(pl, b, "mirror: "+fmt.Sprintf(format, args...))
	}
	ents, k, holes := pl.ents, pl.lo, 0
	if k < 0 || k > len(ents) {
		return fail(heap.Nil, "window starts at %d of %d entries", k, len(ents))
	}
	if m.recordsFreePools() && len(pl.slots) != len(ents) {
		return fail(heap.Nil, "%d slots beside %d entries", len(pl.slots), len(ents))
	}
	if k < len(ents) && ents[k].size == 0 {
		return fail(heap.Nil, "the window starts with a hole")
	}
	for b := pl.head; b != heap.Nil; b = m.V.NextFree(b) {
		if k < len(ents) && ents[k].size == 0 {
			run := int(ents[k].addr)
			if run <= 0 || k+run >= len(ents) {
				return fail(b, "a run of %d holes at entry %d overruns the window", run, k)
			}
			for j := k; j < k+run; j++ {
				if ents[j].size != 0 {
					return fail(b, "entry %d inside a run of holes is listed", j)
				}
			}
			if last := ents[k+run-1]; last.addr != heap.Addr(run) {
				return fail(b, "the run of holes at entry %d records %d at its first entry and %d at its last", k, run, last.addr)
			}
			holes += run
			k += run
		}
		if k >= len(ents) {
			return fail(b, "ends before the list")
		}
		e := ents[k]
		if e.addr != b {
			return fail(b, "entry %d holds %#x", k, e.addr)
		}
		if size := m.sizeOf(b); int64(e.size) != size {
			return fail(b, "entry %d records %d bytes, the block has %d", k, e.size, size)
		}
		if b == pl.rover && pl.roverAt != k {
			return fail(b, "is the rover at entry %d, recorded at %d", k, pl.roverAt)
		}
		if m.recordsFreePools() {
			v, _ := m.freeKey.Get(b)
			if s := pl.slots[k]; v != s+1 || int(s) >= len(m.slots) || m.slots[s] != (mirrorSlot{pl, k}) {
				return fail(b, "entry %d has slot %d, the free-block table names slot+1 %d", k, s, v)
			}
		}
		k++
	}
	if k != len(ents) {
		return fail(heap.Nil, "holds entries past the list's tail")
	}
	if holes != pl.holes {
		return fail(heap.Nil, "holds %d holes, the pool counts %d", holes, pl.holes)
	}
	return nil
}

// poolError reports an inconsistency found at block b of pool pl.
func (m *Custom) poolError(pl *pool, b heap.Addr, problem string) error {
	k := m.keys[pl.idx]
	return fmt.Errorf("core: %s: pool (phase %d, class %d), block %#x: %s", m.name, k.phase, k.class, b, problem)
}

var (
	_ mm.Manager     = (*Custom)(nil)
	_ mm.Checksummer = (*Custom)(nil)
)
