// Benchmarks regenerating the paper's tables and figures. Each benchmark
// replays a case-study trace against one manager; ns/op is the live
// execution-time measurement and the reported custom metrics carry the
// footprint results:
//
//   - footprint-bytes: maximum memory footprint (Table 1 cells)
//   - live-bytes: the workload's peak requested bytes (lower bound)
//   - work/op: allocator work units per trace event (perf proxy)
//
// Run with: go test -bench=. -benchmem
package dmmkit_test

import (
	"context"
	"sync"
	"testing"

	"dmmkit"
	"dmmkit/internal/dspace"
	"dmmkit/internal/experiments"
	"dmmkit/internal/mm"
	"dmmkit/internal/profile"
	"dmmkit/internal/search"
	"dmmkit/internal/trace"
)

// Traces are built once (quick variants keep bench time reasonable).
var (
	traceOnce sync.Once
	benchTr   map[experiments.Workload]*trace.Trace
	benchProf map[experiments.Workload]*profile.Profile
)

func workloadTrace(b *testing.B, w experiments.Workload) (*trace.Trace, *profile.Profile) {
	b.Helper()
	traceOnce.Do(func() {
		benchTr = make(map[experiments.Workload]*trace.Trace)
		benchProf = make(map[experiments.Workload]*profile.Profile)
		for _, wl := range experiments.Workloads {
			tr, err := experiments.BuildWorkloadTrace(wl, 1, true)
			if err != nil {
				panic(err)
			}
			benchTr[wl] = tr
			benchProf[wl] = profile.FromTrace(tr)
		}
	})
	return benchTr[w], benchProf[w]
}

// benchReplay is the common body: one iteration = one full trace replay.
func benchReplay(b *testing.B, w experiments.Workload, m experiments.ManagerName) {
	b.Helper()
	tr, prof := workloadTrace(b, w)
	var last trace.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr, err := experiments.NewManager(m, prof)
		if err != nil {
			b.Fatal(err)
		}
		last, err = trace.Run(context.Background(), mgr, tr, trace.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(last.MaxFootprint), "footprint-bytes")
	b.ReportMetric(float64(last.MaxLive), "live-bytes")
	b.ReportMetric(float64(last.Work)/float64(last.Events), "work/op")
}

// Table 1, column 1: DRR scheduler.

func BenchmarkTable1_DRR_Kingsley(b *testing.B) {
	benchReplay(b, experiments.WorkloadDRR, experiments.MgrKingsley)
}
func BenchmarkTable1_DRR_Lea(b *testing.B) {
	benchReplay(b, experiments.WorkloadDRR, experiments.MgrLea)
}
func BenchmarkTable1_DRR_Regions(b *testing.B) {
	benchReplay(b, experiments.WorkloadDRR, experiments.MgrRegions)
}
func BenchmarkTable1_DRR_Obstacks(b *testing.B) {
	benchReplay(b, experiments.WorkloadDRR, experiments.MgrObstacks)
}
func BenchmarkTable1_DRR_Custom(b *testing.B) {
	benchReplay(b, experiments.WorkloadDRR, experiments.MgrCustom)
}

// Table 1, column 2: 3D image reconstruction.

func BenchmarkTable1_Recon3D_Kingsley(b *testing.B) {
	benchReplay(b, experiments.WorkloadRecon, experiments.MgrKingsley)
}
func BenchmarkTable1_Recon3D_Lea(b *testing.B) {
	benchReplay(b, experiments.WorkloadRecon, experiments.MgrLea)
}
func BenchmarkTable1_Recon3D_Regions(b *testing.B) {
	benchReplay(b, experiments.WorkloadRecon, experiments.MgrRegions)
}
func BenchmarkTable1_Recon3D_Obstacks(b *testing.B) {
	benchReplay(b, experiments.WorkloadRecon, experiments.MgrObstacks)
}
func BenchmarkTable1_Recon3D_Custom(b *testing.B) {
	benchReplay(b, experiments.WorkloadRecon, experiments.MgrCustom)
}

// Table 1, column 3: 3D scalable rendering.

func BenchmarkTable1_Render3D_Kingsley(b *testing.B) {
	benchReplay(b, experiments.WorkloadRender, experiments.MgrKingsley)
}
func BenchmarkTable1_Render3D_Lea(b *testing.B) {
	benchReplay(b, experiments.WorkloadRender, experiments.MgrLea)
}
func BenchmarkTable1_Render3D_Regions(b *testing.B) {
	benchReplay(b, experiments.WorkloadRender, experiments.MgrRegions)
}
func BenchmarkTable1_Render3D_Obstacks(b *testing.B) {
	benchReplay(b, experiments.WorkloadRender, experiments.MgrObstacks)
}
func BenchmarkTable1_Render3D_Custom(b *testing.B) {
	benchReplay(b, experiments.WorkloadRender, experiments.MgrCustom)
}

// Figure 5: DRR footprint-over-time series (Lea vs custom with sampling).
func BenchmarkFigure5_Series(b *testing.B) {
	var res *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFigure5(context.Background(), experiments.Config{Quick: true}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Lea) == 0 || len(res.Custom) == 0 {
		b.Fatal("empty series")
	}
	b.ReportMetric(float64(res.Lea[len(res.Lea)-1].Footprint), "lea-final-bytes")
	b.ReportMetric(float64(res.Custom[len(res.Custom)-1].Footprint), "custom-final-bytes")
}

// Sec. 5 execution-time claim: custom vs Kingsley at the application
// level (~10% in the paper).
func BenchmarkPerf_Overhead(b *testing.B) {
	var prs []experiments.PerfResult
	for i := 0; i < b.N; i++ {
		var err error
		prs, err = experiments.RunPerf(context.Background(), experiments.Config{Seeds: 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, pr := range prs {
		sum += pr.AppOverhead
	}
	b.ReportMetric(100*sum/float64(len(prs)), "app-overhead-%")
}

// Figure 4 ablation: the paper's decision order vs deciding block tags
// first.
func BenchmarkFig4_OrderAblation(b *testing.B) {
	var res *experiments.OrderResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunOrderAblation(context.Background(), experiments.Config{Seeds: 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.RightFootprint), "right-order-bytes")
	b.ReportMetric(float64(res.WrongFootprint), "wrong-order-bytes")
}

// Sec. 1 motivation: static worst-case sizing vs dynamic management.
func BenchmarkStaticVsDynamic(b *testing.B) {
	var res *experiments.StaticResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunStaticVsDynamic(context.Background(), experiments.Config{Seeds: 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.StaticBytes), "static-bytes")
	b.ReportMetric(float64(res.DynamicPeak), "dynamic-bytes")
}

// Methodology speed: one full profile + tree walk + manager build.
func BenchmarkDesignerWalk(b *testing.B) {
	tr, _ := workloadTrace(b, experiments.WorkloadDRR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profile.FromTrace(tr)
		d := dmmkit.Design(p)
		if _, err := d.Build(dmmkit.NewHeap()); err != nil {
			b.Fatal(err)
		}
	}
}

// Design-space enumeration (144,480 vectors), read from the index built
// on first use.
func BenchmarkEnumerateDesignSpace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := dmmkit.EnumerateVectors(func(dmmkit.Vector) bool { return true })
		if n == 0 {
			b.Fatal("no vectors")
		}
	}
}

// Design-space sampling as every search starts it: a 12-vector stride
// sample of the whole space and of a pinned subspace, and the size of
// the pinned subspace, all over the warm index.
func BenchmarkSample(b *testing.B) {
	fix := search.Fixed{dspace.B1PoolDivision: dspace.PoolPerClass, dspace.C2FreeOrder: dspace.AddressOrder}
	search.Size(nil) // build the index outside the timed loop
	for _, bc := range []struct {
		name string
		run  func() int
	}{
		{"unpinned", func() int { return len(search.Sample(12, nil)) }},
		{"pinned", func() int { return len(search.Sample(12, fix)) }},
		{"size-pinned", func() int { return search.Size(fix) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.run() == 0 {
					b.Fatal("empty sample")
				}
			}
		})
	}
}

// Micro-benchmarks: raw alloc/free pairs per manager (per-op costs).
func benchMicro(b *testing.B, mk func() mm.Manager) {
	m := mk()
	sizes := []int64{24, 96, 552, 1500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := m.Alloc(mm.Request{Size: sizes[i%len(sizes)]})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_Kingsley(b *testing.B) {
	benchMicro(b, func() mm.Manager { return dmmkit.NewKingsley(dmmkit.NewHeap()) })
}

func BenchmarkMicro_Lea(b *testing.B) {
	benchMicro(b, func() mm.Manager { return dmmkit.NewLea(dmmkit.NewHeap()) })
}

func BenchmarkMicro_CustomDRRDesign(b *testing.B) {
	_, prof := workloadTrace(b, experiments.WorkloadDRR)
	benchMicro(b, func() mm.Manager {
		m, err := dmmkit.Design(prof).Build(dmmkit.NewHeap())
		if err != nil {
			b.Fatal(err)
		}
		return m
	})
}

// Sorted free lists: the quick DRR trace replayed against a size-sorted
// (A1) and an address-ordered (C2) custom manager. Neither coalesces or
// splits, so their single pool's list grows to thousands of blocks and
// every insertion lands at a sorted position in it.
func BenchmarkMicro_CustomOrderedLists(b *testing.B) {
	tr, _ := workloadTrace(b, experiments.WorkloadDRR)
	base := dspace.Vector{
		BlockStructure: dspace.DoublyLinked,
		BlockSizes:     dspace.ManyVarSizes,
		BlockTags:      dspace.HeaderTag,
		RecordedInfo:   dspace.RecordSize,
		Flex:           dspace.NoFlex,
		PoolDivision:   dspace.SinglePool,
		PoolRange:      dspace.AnyRange,
		Fit:            dspace.FirstFit,
	}
	sizeSorted, addressOrdered := base, base
	sizeSorted.BlockStructure, sizeSorted.Fit = dspace.SizeSorted, dspace.BestFit
	addressOrdered.FreeOrder = dspace.AddressOrder
	for _, bc := range []struct {
		name string
		vec  dspace.Vector
	}{{"size-sorted", sizeSorted}, {"address-ordered", addressOrdered}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := dmmkit.NewCustom(dmmkit.NewHeap(), bc.vec, dmmkit.Params{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := trace.Run(context.Background(), m, tr, trace.RunOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
		})
	}
}

// Unsorted free lists: the quick DRR trace replayed against LIFO and FIFO
// custom managers under first and best fit. None coalesces or splits, so
// the single pool's list grows past the probe budget and every search
// runs the budget out or stops at a fit deep in the list.
func BenchmarkMicro_CustomUnsortedLists(b *testing.B) {
	tr, _ := workloadTrace(b, experiments.WorkloadDRR)
	base := dspace.Vector{
		BlockStructure: dspace.DoublyLinked,
		BlockSizes:     dspace.ManyVarSizes,
		BlockTags:      dspace.HeaderTag,
		RecordedInfo:   dspace.RecordSize,
		Flex:           dspace.NoFlex,
		PoolDivision:   dspace.SinglePool,
		PoolRange:      dspace.AnyRange,
	}
	for _, order := range []struct {
		name string
		leaf dspace.Leaf
	}{{"lifo", dspace.LIFOOrder}, {"fifo", dspace.FIFOOrder}} {
		for _, fit := range []struct {
			name string
			leaf dspace.Leaf
		}{{"first", dspace.FirstFit}, {"best", dspace.BestFit}} {
			vec := base
			vec.FreeOrder, vec.Fit = order.leaf, fit.leaf
			b.Run(order.name+"-"+fit.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := dmmkit.NewCustom(dmmkit.NewHeap(), vec, dmmkit.Params{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := trace.Run(context.Background(), m, tr, trace.RunOpts{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
			})
		}
	}
}
