package block

import (
	"fmt"

	"dmmkit/internal/heap"
)

// BlockInfo describes one block found by Walk.
type BlockInfo struct {
	Addr heap.Addr // block (header) address
	Size int64     // gross size
	Used bool      // used bit (false when layout records no status)
}

// Walk iterates the contiguous run of blocks in [start, end), calling fn
// for each. It validates basic structural invariants: positive aligned
// sizes, no block crossing end. Walk requires a layout that records sizes.
func (v View) Walk(start, end heap.Addr, fn func(BlockInfo) error) error {
	if !v.L.Info.Has(InfoSize) {
		return fmt.Errorf("block: Walk requires recorded sizes (layout %v)", v.L.Info)
	}
	for b := start; b < end; {
		sz := v.Size(b)
		if sz <= 0 || sz%heap.Align != 0 {
			return fmt.Errorf("block: corrupt size %d at %#x", sz, b)
		}
		if int64(b)+sz > int64(end) {
			return fmt.Errorf("block: block at %#x (size %d) crosses region end %#x", b, sz, end)
		}
		used := v.L.Info.Has(InfoStatus) && v.Used(b)
		if err := fn(BlockInfo{Addr: b, Size: sz, Used: used}); err != nil {
			return err
		}
		b += heap.Addr(sz)
	}
	return nil
}

// CheckRegion validates the full boundary-tag invariants of the contiguous
// region [start, end): block sizes tile the region exactly, and free
// reports which blocks are free. The caller's free lists know that; the
// tags alone cannot, since a layout without status bits records none.
// With status recorded, every block's used bit must agree with free and
// every prevUsed bit with the previous block; with footers, every free
// block's footer must equal its header size. It returns the number of
// blocks on success.
func (v View) CheckRegion(start, end heap.Addr, free func(heap.Addr) bool) (int, error) {
	n := 0
	prevKnown := false
	prevUsed := false
	err := v.Walk(start, end, func(bi BlockInfo) error {
		n++
		used := !free(bi.Addr)
		if v.L.Info.Has(InfoStatus) {
			if bi.Used != used {
				return fmt.Errorf("block: used bit at %#x is %v, want %v from the free lists", bi.Addr, bi.Used, used)
			}
			if prevKnown {
				if got := v.PrevUsed(bi.Addr); got != prevUsed {
					return fmt.Errorf("block: prevUsed bit at %#x is %v, neighbour is %v", bi.Addr, got, prevUsed)
				}
			}
		}
		if v.L.Tags == TagsBoth && !used {
			if f := int64(v.H.U32(bi.Addr+heap.Addr(bi.Size)-4) & sizeMask); f != bi.Size {
				return fmt.Errorf("block: footer %d != header %d at %#x", f, bi.Size, bi.Addr)
			}
		}
		prevKnown, prevUsed = true, used
		return nil
	})
	return n, err
}
