package core

import (
	"fmt"
	"strings"

	"dmmkit/internal/block"
	"dmmkit/internal/heap"
)

// FragReport quantifies the two memory-waste factors of the paper's
// Sec. 4.1 for a tagged custom manager at a point in time:
//
//   - organization overhead: header/footer bytes of live blocks (factor
//     1a) — the cost of the A3/A4 decisions;
//   - internal fragmentation: rounding waste inside live blocks;
//   - external fragmentation: free memory that exists but is scattered —
//     reported via the free-block population and the largest free block
//     (a request above it fails even though the total free would cover
//     it, the paper's definition of external fragmentation).
type FragReport struct {
	HeapBytes     int64 // bytes currently requested from the system
	LiveBlocks    int64
	LivePayload   int64 // requested bytes (application view)
	LiveGross     int64 // live bytes including overhead and rounding
	Overhead      int64 // header/footer bytes of live blocks
	FreeBlocks    int64
	FreeBytes     int64   // total free bytes inside the heap
	LargestFree   int64   // largest single free block
	ExternalIndex float64 // 1 - largest/total free, in [0,1); 0 when compact
}

// Fragmentation walks the heap of a tagged manager and reports its
// current fragmentation state. Untagged managers (no in-band sizes)
// return a report with only the heap and live counters filled.
func (m *Custom) Fragmentation() FragReport {
	r := FragReport{HeapBytes: m.V.H.Footprint()}
	s := m.Stats()
	r.LiveBlocks = s.LiveBlocks
	r.LivePayload = s.LiveBytes
	r.LiveGross = s.GrossLive
	if !m.tagged || m.heapStart == heap.Nil || m.heapStart >= m.V.H.Brk() {
		return r
	}
	overheadPer := m.V.L.Overhead()
	_ = m.V.Walk(m.heapStart, m.V.H.Brk(), func(bi block.BlockInfo) error {
		if bi.Used {
			r.Overhead += overheadPer
			return nil
		}
		r.FreeBlocks++
		r.FreeBytes += bi.Size
		if bi.Size > r.LargestFree {
			r.LargestFree = bi.Size
		}
		return nil
	})
	if r.FreeBytes > 0 {
		r.ExternalIndex = 1 - float64(r.LargestFree)/float64(r.FreeBytes)
	}
	return r
}

// String renders the report for diagnostics.
func (r FragReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "heap %d B: %d live blocks (%d B payload, %d B gross, %d B overhead); ",
		r.HeapBytes, r.LiveBlocks, r.LivePayload, r.LiveGross, r.Overhead)
	fmt.Fprintf(&b, "%d free blocks (%d B, largest %d, external index %.2f)",
		r.FreeBlocks, r.FreeBytes, r.LargestFree, r.ExternalIndex)
	return b.String()
}
