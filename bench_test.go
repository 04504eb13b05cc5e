// Package mptwino's root bench suite regenerates every table and figure of
// the paper's evaluation (DESIGN.md §4 maps each benchmark to its
// experiment) and reports the headline metrics via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation:
//
//	BenchmarkFig01ComputeVsAccess   Fig. 1
//	BenchmarkFig06CommPerLayer      Fig. 6
//	BenchmarkFig07CommScaling       Fig. 7
//	BenchmarkFig12ActPrediction     Fig. 12 + §V-B numbers
//	BenchmarkFig14ModifiedJoin      Fig. 14
//	BenchmarkFig15LayerTimeEnergy   Fig. 15
//	BenchmarkFig16WeightSize        Fig. 16
//	BenchmarkFig17FullCNN           Fig. 17
//	BenchmarkFig18IsoPower          Fig. 18
//	BenchmarkNoC*                   network-simulator validation and host time
//	BenchmarkKernel*                numeric kernel micro-benchmarks
//	BenchmarkPredictSteady          steady-state activation prediction
//	BenchmarkTrainStep              whole mpt.Net training step
//	BenchmarkAblation*              DESIGN.md §5 design-choice ablations
package mptwino

import (
	"runtime"
	"runtime/debug"
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/cosim"
	"mptwino/internal/figures"
	"mptwino/internal/model"
	"mptwino/internal/mpt"
	"mptwino/internal/ndp"
	"mptwino/internal/noc"
	"mptwino/internal/parallel"
	"mptwino/internal/planner"
	"mptwino/internal/quant"
	"mptwino/internal/sim"
	"mptwino/internal/telemetry"
	"mptwino/internal/tensor"
	"mptwino/internal/topology"
	"mptwino/internal/winograd"
)

// reportFigure runs one figure generator b.N times and reports the chosen
// metrics.
func reportFigure(b *testing.B, gen func() figures.Result, keys map[string]string) {
	b.Helper()
	var r figures.Result
	for i := 0; i < b.N; i++ {
		r = gen()
	}
	for metric, unit := range keys {
		v, ok := r.Metrics[metric]
		if !ok {
			b.Fatalf("figure %s missing metric %q", r.ID, metric)
		}
		b.ReportMetric(v, unit)
	}
}

func BenchmarkFig01ComputeVsAccess(b *testing.B) {
	reportFigure(b, figures.Fig01, map[string]string{
		"avg_compute_reduction": "compute_redux_x", // paper: 2.8x
		"avg_access_increase":   "access_incr_x",   // paper: 4.4x
	})
}

func BenchmarkFig06CommPerLayer(b *testing.B) {
	reportFigure(b, figures.Fig06, map[string]string{
		"Early/dp_total_MB":       "early_dp_MB",
		"Early/mpt-16g_total_MB":  "early_mpt16_MB",
		"Late-2/dp_total_MB":      "late_dp_MB",
		"Late-2/mpt-16g_total_MB": "late_mpt16_MB",
	})
}

func BenchmarkFig07CommScaling(b *testing.B) {
	reportFigure(b, figures.Fig07, map[string]string{
		"dp_MB_p256":           "dp_MB",
		"mpt_MB_p256":          "mpt_MB",
		"dyn_vs_mpt_reduction": "dyn_redux_x", // paper: 1.4x
	})
}

func BenchmarkFig12ActPrediction(b *testing.B) {
	reportFigure(b, figures.Fig12, map[string]string{
		"cifar_gather2D":    "cifar_2d_skip", // paper headline: 34.0% traffic cut
		"cifar_gather1D":    "cifar_1d_skip", // paper headline: 78.1% traffic cut
		"imagenet_gather2D": "imagenet_2d_skip",
		"imagenet_gather1D": "imagenet_1d_skip",
	})
}

func BenchmarkFig14ModifiedJoin(b *testing.B) {
	reportFigure(b, figures.Fig14, map[string]string{
		"max_loss_diff": "max_loss_diff", // paper: same accuracy → ~0
	})
}

func BenchmarkFig15LayerTimeEnergy(b *testing.B) {
	reportFigure(b, figures.Fig15, map[string]string{
		"avg_speedup_wmpfull":  "wmpfull_speedup_x", // paper: 2.74x
		"mid_speedup_wmppred":  "mid_wmppred_x",     // paper: 2.24x
		"late_speedup_wmppred": "late_wmppred_x",    // paper: 4.54x
	})
}

func BenchmarkFig16WeightSize(b *testing.B) {
	reportFigure(b, figures.Fig16, map[string]string{
		"3x3_w_mp++": "mean3x3_x", // paper: 2.74x
		"5x5_w_mp++": "mean5x5_x", // paper: 3.03x (see EXPERIMENTS.md)
	})
}

func BenchmarkFig17FullCNN(b *testing.B) {
	reportFigure(b, figures.Fig17, map[string]string{
		"avg_wdp_speedup":       "wdp_vs_1ndp_x",     // paper: 71x
		"avg_wmpfull_speedup":   "wmpfull_vs_1ndp_x", // paper: 191x
		"avg_wmpfull_over_wdp":  "wmpfull_vs_wdp_x",  // paper: 2.7x
		"avg_wmpfull_over_8gpu": "wmpfull_vs_8gpu_x", // paper: 21.6x
	})
}

func BenchmarkFig18IsoPower(b *testing.B) {
	reportFigure(b, figures.Fig18, map[string]string{
		"avg_perf_ratio": "perf_x",
		"avg_ppw_ratio":  "perf_per_watt_x", // paper: 9.5x
	})
}

// BenchmarkNoCCollective runs sim.RingCheck, the flit-level 16-member
// ring all-reduce of 64 KB, and reports its ratio to the closed form the
// phase model charges (the ring row of `figures -only noc`).
func BenchmarkNoCCollective(b *testing.B) {
	var c sim.NoCCheck
	for i := 0; i < b.N; i++ {
		c = sim.RingCheck(noc.DefaultConfig(), 16, 64*1024)
	}
	b.ReportMetric(float64(c.Cycles), "cycles")
	b.ReportMetric(c.Ratio, "vs_model_x")
}

// BenchmarkNoCAllToAll runs sim.CellCheck, the FBFLY-16 all-to-all of 4 KB
// per pair, and reports its ratio to the hop-weighted bandwidth bound: the
// congestion factor that calibrates sim.System.TileCongestion.
func BenchmarkNoCAllToAll(b *testing.B) {
	var c sim.NoCCheck
	for i := 0; i < b.N; i++ {
		c = sim.CellCheck(noc.DefaultConfig(), 16, 4*1024)
	}
	b.ReportMetric(float64(c.Cycles), "cycles")
	b.ReportMetric(c.Ratio, "vs_hop_bound_x")
}

// BenchmarkNoCStepSteady times one warm cycle of the flit simulator: the
// 40 B FBFLY all-to-all, repeated on one network after a first pass has
// sized its queues and link pipelines. Its 0 allocs/op baseline pins the
// cycle loop's zero-allocation contract (benchdiff -gate-allocs).
// Re-injecting the traffic whenever it drains runs off the clock.
func BenchmarkNoCStepSteady(b *testing.B) {
	// With the collector off, the set-up's allocations cannot start a GC
	// cycle whose background work is still runnable when ResetTimer stops
	// the world; restarting it could then start an OS thread and count
	// that thread's runtime allocations against the measured step.
	// Refills collect explicitly.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	members := make([]int, 16)
	for i := range members {
		members[i] = i
	}
	n := noc.New(topology.FBFly2D(4), noc.DefaultConfig())
	var d noc.Driver
	inject := func() {
		d = &noc.AllToAll{Members: members, Bytes: 40}
		d.Start(n)
	}
	inject()
	for !n.Idle() {
		n.Step(d)
	}
	inject()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.Idle() {
			b.StopTimer()
			runtime.GC()
			inject()
			b.StartTimer()
		}
		n.Step(d)
	}
}

// BenchmarkNoCHybrid times one New plus Run of perfbench's noc-hybrid
// traffic with its sizes undealt: on Hybrid(16,16), a ring collective per
// group (256-480 B per member) and an all-to-all per cluster (32-60 B per
// pair), all at once. The simulated cycles and flit hops are model
// metrics; `make profile` writes noc_cpu.pprof from this benchmark.
func BenchmarkNoCHybrid(b *testing.B) {
	const ng, nc = 16, 16
	g := topology.Hybrid(ng, nc, false)
	traffic := func() noc.Driver {
		var ds []noc.Driver
		for grp := 0; grp < ng; grp++ {
			ring := make([]int, nc)
			for c := range ring {
				ring[c] = topology.WorkerID(grp, c, nc)
			}
			ds = append(ds, &noc.RingCollective{Members: ring, Bytes: 256 + 32*(grp%8)})
		}
		for c := 0; c < nc; c++ {
			cluster := make([]int, ng)
			for grp := range cluster {
				cluster[grp] = topology.WorkerID(grp, c, nc)
			}
			ds = append(ds, &noc.AllToAll{Members: cluster, Bytes: 32 + 4*(c%8)})
		}
		return noc.NewMultiDriver(ds...)
	}
	var st noc.Stats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if st, err = noc.New(g, noc.DefaultConfig()).Run(traffic(), 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Cycles), "cycles")
	b.ReportMetric(float64(st.FlitHops), "flit_hops")
}

// --- numeric kernel micro-benchmarks (the actual Go implementations) ---

func kernelSetup() (conv.Params, *tensor.Tensor, *tensor.Tensor) {
	p := conv.Params{In: 16, Out: 16, K: 3, Pad: 1, H: 32, W: 32}
	rng := tensor.NewRNG(1)
	x := tensor.New(4, p.In, p.H, p.W)
	w := tensor.New(p.Out, p.In, 3, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillHe(w, p.In*9)
	return p, x, w
}

func BenchmarkKernelDirectFprop(b *testing.B) {
	p, x, w := kernelSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Fprop(p, x, w)
	}
}

func BenchmarkKernelIm2colFprop(b *testing.B) {
	p, x, w := kernelSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.FpropIm2col(p, x, w)
	}
}

func BenchmarkKernelWinogradFprop(b *testing.B) {
	p, x, w := kernelSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		winograd.Fprop(winograd.F4x4_3x3, p, x, w)
	}
}

func BenchmarkKernelWinogradUpdateGrad(b *testing.B) {
	p, x, w := kernelSetup()
	y := conv.Fprop(p, x, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		winograd.UpdateGrad(winograd.F2x2_3x3, p, x, y)
	}
}

func BenchmarkKernelQuantize(b *testing.B) {
	q := quant.MustQuantizer(4, 6, 1)
	rng := tensor.NewRNG(2)
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	qv := make([]float32, len(vals))
	res := make([]float32, len(vals))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.QuantizeSlice(vals, qv, res)
	}
}

// predictDomain is a Winograd-domain output Domain from a real forward
// pass of tr over Gaussian data, shifted −0.7σ negative like a trained
// ReLU layer's pre-activations (the Fig. 12 operating point).
func predictDomain(b *testing.B, tr *winograd.Transform, seed uint64) *winograd.Domain {
	p := conv.Params{In: 4, Out: 8, K: 3, Pad: 1, H: 24, W: 24}
	tl, err := winograd.NewTiling(tr, p)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(seed)
	x := tensor.New(4, p.In, p.H, p.W)
	w := tensor.New(p.Out, p.In, 3, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillHe(w, p.In*9)
	yd := winograd.MulForward(tl.TransformInput(x), winograd.TransformWeights(tr, w), nil)
	yd.AddOutputBias(-0.7 * quant.DomainSigma(yd))
	return yd
}

// BenchmarkPredictSteady is the steady-state activation-prediction path
// FpropReLU runs: 2-D prediction over every row of an F(4×4) output
// Domain plus 1-D prediction over an F(2×2) one, each row's channels as
// lanes, through one reused Lanes each. Its contract is 0 allocs/op; the
// skip fractions it reports pin the skip decisions.
func BenchmarkPredictSteady(b *testing.B) {
	type path struct {
		yd    *winograd.Domain
		pr    *quant.Predictor
		lanes *quant.Lanes
		oneD  bool
		skip  int
	}
	var paths []*path
	for _, c := range []struct {
		tr   *winograd.Transform
		bits int
		oneD bool
	}{{winograd.F4x4_3x3, 6, false}, {winograd.F2x2_3x3, 5, true}} {
		yd := predictDomain(b, c.tr, 13)
		paths = append(paths, &path{yd: yd, oneD: c.oneD,
			pr:    quant.NewPredictor(c.tr, quant.MustQuantizer(4, c.bits, quant.DomainSigma(yd))),
			lanes: quant.NewLanes(c.tr, yd.C)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range paths {
			p.skip = 0
			for r := 0; r < p.yd.Rows(); r++ {
				if p.oneD {
					p.pr.Predict1DRowInto(p.lanes, p.yd, r)
				} else {
					p.pr.Predict2DRowInto(p.lanes, p.yd, r)
				}
				p.skip += p.lanes.CountNonActivated()
			}
		}
	}
	b.StopTimer()
	for _, p := range paths {
		frac := float64(p.skip) / float64(p.yd.Rows()*p.yd.C)
		if p.oneD {
			b.ReportMetric(frac, "skip1d_frac")
		} else {
			b.ReportMetric(frac, "skip2d_frac")
		}
	}
}

// --- DESIGN.md §5 ablations ---

// BenchmarkAblationClusteringMenu compares per-layer time under each fixed
// clustering against the dynamic choice, for the layer classes where the
// menu matters most.
func BenchmarkAblationClusteringMenu(b *testing.B) {
	s := sim.DefaultSystem()
	layers := model.FiveLayers()
	var early16, earlyDyn, late1, lateDyn float64
	for i := 0; i < b.N; i++ {
		early16 = s.SimulateLayer(layers[0], 256, sim.WMp).TotalSec()
		earlyDyn = s.SimulateLayer(layers[0], 256, sim.WMpDyn).TotalSec()
		late1 = s.SimulateLayer(layers[4], 256, sim.WDp).TotalSec()
		lateDyn = s.SimulateLayer(layers[4], 256, sim.WMpDyn).TotalSec()
	}
	b.ReportMetric(early16/earlyDyn, "early_fixed16_vs_dyn_x")
	b.ReportMetric(late1/lateDyn, "late_ng1_vs_dyn_x")
}

// BenchmarkAblationPrediction isolates the activation-prediction gain on
// the layer where tile transfer dominates.
func BenchmarkAblationPrediction(b *testing.B) {
	s := sim.DefaultSystem()
	l := model.FiveLayers()[1]
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = s.SimulateLayer(l, 256, sim.WMp).TotalSec()
		on = s.SimulateLayer(l, 256, sim.WMpPred).TotalSec()
	}
	b.ReportMetric(off/on, "prediction_gain_x")
}

// BenchmarkAblationQuantizerRegions sweeps the non-uniform quantizer's
// region count at fixed bits and reports the 1-D line-skip ratio — the
// design choice Fig. 10/12 motivate (4 regions fit the Gaussian best).
func BenchmarkAblationQuantizerRegions(b *testing.B) {
	tr := winograd.F2x2_3x3
	p := conv.Params{In: 4, Out: 8, K: 3, Pad: 1, H: 16, W: 16}
	rng := tensor.NewRNG(9)
	tl, err := winograd.NewTiling(tr, p)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(4, p.In, p.H, p.W)
	w := tensor.New(p.Out, p.In, 3, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillHe(w, p.In*9)
	xd := tl.TransformInput(x)
	wd := winograd.TransformWeights(tr, w)
	yd := winograd.MulForward(xd, wd, nil)
	sigma := quant.DomainSigma(yd)
	yd.AddOutputBias(-0.7 * sigma)

	ratios := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, regions := range []int{1, 2, 4} {
			q := quant.MustQuantizer(regions, 5, sigma)
			pr := quant.NewPredictor(tr, q)
			st := quant.MeasureGather(yd, pr, pr)
			if st.FalseNegatives != 0 {
				b.Fatalf("regions=%d produced false negatives", regions)
			}
			ratios[regions] = st.LineSkipRatio()
		}
	}
	for _, regions := range []int{1, 2, 4} {
		b.ReportMetric(ratios[regions], "lineskip_r"+string(rune('0'+regions)))
	}
}

// BenchmarkAblationChunkSize sweeps the collective packet size: large
// chunks amortize SerDes, tiny chunks bloat the pipeline-fill term (the
// paper picked 256 B).
func BenchmarkAblationChunkSize(b *testing.B) {
	l := model.FiveLayers()[4]
	var t64, t256, t4096 float64
	for i := 0; i < b.N; i++ {
		for _, cs := range []struct {
			bytes int
			out   *float64
		}{{64, &t64}, {256, &t256}, {4096, &t4096}} {
			s := sim.DefaultSystem()
			s.ChunkBytes = cs.bytes
			*cs.out = s.SimulateLayer(l, 256, sim.WMp).BackwardSec
		}
	}
	b.ReportMetric(t64/t256, "chunk64_vs_256_x")
	b.ReportMetric(t4096/t256, "chunk4096_vs_256_x")
}

// BenchmarkAblationWorkerScaling reports w_dp vs w_mp++ scalability across
// worker counts — the trend behind Fig. 7/17.
func BenchmarkAblationWorkerScaling(b *testing.B) {
	net := model.ResNet34()
	var r64, r256 float64
	for i := 0; i < b.N; i++ {
		for _, pw := range []struct {
			p   int
			out *float64
		}{{64, &r64}, {256, &r256}} {
			s := sim.DefaultSystem()
			s.Workers = pw.p
			dp := s.SimulateNetwork(net, sim.WDp)
			full := s.SimulateNetwork(net, sim.WMpFull)
			*pw.out = dp.IterationSec / full.IterationSec
		}
	}
	b.ReportMetric(r64, "gain_p64_x")
	b.ReportMetric(r256, "gain_p256_x")
}

// BenchmarkCommModel exercises the closed-form volume model (it should be
// effectively free — the paper precomputes it per layer at configuration
// time).
func BenchmarkCommModel(b *testing.B) {
	l := model.FiveLayers()[2]
	st := comm.Strategy{Ng: 16, Nc: 16, Winograd: true}
	for i := 0; i < b.N; i++ {
		comm.LayerVolumes(winograd.F2x2_3x3, l.P, 256, st)
	}
}

// BenchmarkAblationAdaptiveRouting compares deterministic vs randomized
// minimal first-hop routing on the FBFLY all-to-all — the path-diversity
// knob the flattened-butterfly literature motivates.
func BenchmarkAblationAdaptiveRouting(b *testing.B) {
	members := make([]int, 16)
	for i := range members {
		members[i] = i
	}
	run := func(random bool) int64 {
		cfg := noc.DefaultConfig()
		cfg.RandomFirstHop = random
		cfg.Seed = 7
		n := noc.New(topology.FBFly2D(4), cfg)
		st, err := n.Run(&noc.AllToAll{Members: members, Bytes: 4096}, 50_000_000)
		if err != nil {
			b.Fatal(err)
		}
		return st.Cycles
	}
	var det, rnd int64
	for i := 0; i < b.N; i++ {
		det = run(false)
		rnd = run(true)
	}
	b.ReportMetric(float64(det), "deterministic_cycles")
	b.ReportMetric(float64(rnd), "randomized_cycles")
	b.ReportMetric(float64(det)/float64(rnd), "adaptive_gain_x")
}

// BenchmarkCosimValidation runs the detailed-mode co-simulation (per-worker
// NDP pipelines + flit-level network) of a (4,4) MPT layer and reports its
// agreement with the event-driven phase model — the justification for
// running Figs. 15-18 on the phase model at p=256.
func BenchmarkCosimValidation(b *testing.B) {
	spec := cosim.Spec{
		St:    comm.Strategy{Ng: 4, Nc: 4, Winograd: true, TileM: 2},
		P:     conv.Params{In: 32, Out: 32, K: 3, Pad: 1, H: 8, W: 8},
		Batch: 16,
		NDP:   ndp.DefaultConfig(),
		Net:   noc.DefaultConfig(),
	}
	var cycles int64
	var ratio float64
	for i := 0; i < b.N; i++ {
		c, err := cosim.New(spec)
		if err != nil {
			b.Fatal(err)
		}
		r, err := c.Run(50_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Cycles
		sys := sim.DefaultSystem()
		sys.Workers = spec.St.Workers()
		pr := sys.SimulateLayer(model.Layer{Name: "cosim", P: spec.P}, spec.Batch, sim.WMp)
		ratio = r.Seconds / pr.TotalSec()
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(ratio, "vs_phase_model_x")
}

// --- blocked-GEMM and allocation-free steady-state benchmarks ---
//
// The GEMM shapes mirror the Fig. 7 per-element dot product: each of the
// T² element matmuls is (B·tiles)×C · C×Out. At the Fig. 7 scale that is
// M=4096, K=64, N=64 — squarely in the blocked kernel's regime. The
// steady-state layer benchmarks gate the tentpole's allocation contract:
// after warm-up, fprop/bprop/updateGrad must report 0 allocs/op
// (cmd/benchdiff fails the run if a zero-alloc baseline regresses).

const gemmBenchM, gemmBenchK, gemmBenchN = 4096, 64, 64

func gemmBenchSetup() (dst, a, b2, bt *tensor.Mat) {
	rng := tensor.NewRNG(3)
	a = tensor.NewMat(gemmBenchM, gemmBenchK)
	b2 = tensor.NewMat(gemmBenchK, gemmBenchN)
	fill := func(m *tensor.Mat) {
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	fill(a)
	fill(b2)
	bt = b2.T()
	return tensor.NewMat(gemmBenchM, gemmBenchN), a, b2, bt
}

func BenchmarkGemmNaive(b *testing.B) {
	dst, a, bm, _ := gemmBenchSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulNaiveInto(dst, a, bm)
	}
}

func BenchmarkGemmBlocked(b *testing.B) {
	dst, a, bm, _ := gemmBenchSetup()
	var s tensor.GemmScratch
	tensor.MatMulIntoScratch(dst, a, bm, &s) // size the packing buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulIntoScratch(dst, a, bm, &s)
	}
}

func BenchmarkGemmNT(b *testing.B) {
	dst, a, _, bt := gemmBenchSetup()
	var s tensor.GemmScratch
	tensor.MatMulNTIntoScratch(dst, a, bt, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulNTIntoScratch(dst, a, bt, &s)
	}
}

func BenchmarkGemmTN(b *testing.B) {
	// TN is the update-grad shape dW = Xᵀ·dY: both operands share the long
	// K = B·tiles dimension (4096 here), producing a C×Out result.
	_, x, _, _ := gemmBenchSetup()
	rng := tensor.NewRNG(7)
	dy := tensor.NewMat(gemmBenchM, gemmBenchN)
	for i := range dy.Data {
		dy.Data[i] = float32(rng.NormFloat64())
	}
	dst := tensor.NewMat(gemmBenchK, gemmBenchN)
	var s tensor.GemmScratch
	tensor.MatMulTNIntoScratch(dst, x, dy, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTNIntoScratch(dst, x, dy, &s)
	}
}

// steadyLayerSetup builds a warm F(4,3) layer at the kernel benchmark
// geometry with worker count pinned to 1 (the closure-free sequential
// path the zero-alloc contract covers). Callers must restore workers.
func steadyLayerSetup(b *testing.B) (l *winograd.Layer, x, y, dy, dx *tensor.Tensor, dw *winograd.Weights, restore func()) {
	prev := parallel.SetDefaultWorkers(1)
	restore = func() { parallel.SetDefaultWorkers(prev) }
	p, xs, w := kernelSetup()
	var err error
	l, err = winograd.NewLayerWithWeights(winograd.F4x4_3x3, p, w)
	if err != nil {
		b.Fatal(err)
	}
	x = xs
	y = tensor.New(x.N, p.Out, p.OutH(), p.OutW())
	dy = tensor.New(x.N, p.Out, p.OutH(), p.OutW())
	rng := tensor.NewRNG(4)
	rng.FillNormal(dy, 0, 1)
	dx = tensor.New(x.N, p.In, p.H, p.W)
	dw = winograd.NewWeights(winograd.F4x4_3x3, p.In, p.Out)
	// Warm up so arenas, GEMM panels, and cached domains are sized.
	l.FpropInto(y, x)
	l.BpropInto(dx, dy)
	l.UpdateGradWInto(dw, dy)
	return l, x, y, dy, dx, dw, restore
}

func BenchmarkLayerFpropSteady(b *testing.B) {
	l, x, y, _, _, _, restore := steadyLayerSetup(b)
	defer restore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.FpropInto(y, x)
	}
}

func BenchmarkLayerBpropSteady(b *testing.B) {
	l, _, _, dy, dx, _, restore := steadyLayerSetup(b)
	defer restore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.BpropInto(dx, dy)
	}
}

func BenchmarkLayerUpdateGradSteady(b *testing.B) {
	l, _, _, dy, _, dw, restore := steadyLayerSetup(b)
	defer restore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.UpdateGradWInto(dw, dy)
	}
}

// BenchmarkTrainStep/alexnet times one warm mpt.Net training step
// (TrainStepMSE) of AlexNet's conv2–conv5 body — channels ÷8, every layer
// at 13×13, batch 8 — on the per-layer grids the planner picks for
// AlexNet (Plan.EngineConfigs: Ng=2 on conv2, Ng=32 at F(4×4) on
// conv3–conv5, Nc=8). Workers are pinned to 1, the sequential path whose
// 0 allocs/op contract benchdiff gates; the traffic the step moves is a
// deterministic model metric.
func BenchmarkTrainStep(b *testing.B) {
	b.Run("alexnet", func(b *testing.B) {
		prev := parallel.SetDefaultWorkers(1)
		defer parallel.SetDefaultWorkers(prev)
		const batch = 8
		var params []conv.Params
		for _, l := range model.AlexNet().Layers {
			p := l.P
			p.In, p.Out, p.H, p.W = p.In/8, p.Out/8, 13, 13
			params = append(params, p)
		}
		plan := planner.Build(model.AlexNet(), planner.Options{System: sim.DefaultSystem()})
		net, err := mpt.NewNetConfigs(params, plan.EngineConfigs(mpt.Config{}, batch), tensor.NewRNG(1))
		if err != nil {
			b.Fatal(err)
		}
		first, last := params[0], params[len(params)-1]
		x := tensor.New(batch, first.In, first.H, first.W)
		target := tensor.New(batch, last.Out, last.OutH(), last.OutW())
		rng := tensor.NewRNG(2)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(target, 0, 1)
		step := func() {
			if _, err := net.TrainStepMSE(x, target, 1e-6); err != nil {
				b.Fatal(err)
			}
		}
		step() // size the step state and workspace
		step()
		before := net.TotalTraffic()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.StopTimer()
		after := net.TotalTraffic()
		moved := after.ScatterBytes + after.GatherBytes + after.CollectiveBytes -
			before.ScatterBytes - before.GatherBytes - before.CollectiveBytes
		b.ReportMetric(float64(moved)/float64(b.N)/1e6, "traffic_MB")
	})
}

// The *SteadyTelemetry twins run the same hot loops with a live metrics
// registry attached to the GEMM hook, proving the enabled path
// is also allocation-free (the benchdiff zero-alloc gate covers them like
// their twins; benchdiff additionally prints the wall-time ratio against
// the detached twin as an informational overhead report). The counted
// GEMM work is reported as a deterministic model metric.
func attachTelemetry() (*telemetry.Registry, func()) {
	reg := telemetry.NewRegistry()
	tensor.Attach(reg)
	return reg, func() { tensor.Attach(nil) }
}

func benchSteadyTelemetry(b *testing.B, step func(l *winograd.Layer, x, y, dy, dx *tensor.Tensor, dw *winograd.Weights)) {
	reg, detach := attachTelemetry()
	defer detach()
	l, x, y, dy, dx, dw, restore := steadyLayerSetup(b)
	defer restore()
	flops := reg.Counter("tensor.gemm_flops")
	start := flops.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(l, x, y, dy, dx, dw)
	}
	b.StopTimer()
	b.ReportMetric(float64(flops.Load()-start)/float64(b.N), "gemm_flops/op")
}

func BenchmarkLayerFpropSteadyTelemetry(b *testing.B) {
	benchSteadyTelemetry(b, func(l *winograd.Layer, x, y, _, _ *tensor.Tensor, _ *winograd.Weights) {
		l.FpropInto(y, x)
	})
}

func BenchmarkLayerBpropSteadyTelemetry(b *testing.B) {
	benchSteadyTelemetry(b, func(l *winograd.Layer, _, _, dy, dx *tensor.Tensor, _ *winograd.Weights) {
		l.BpropInto(dx, dy)
	})
}

func BenchmarkLayerUpdateGradSteadyTelemetry(b *testing.B) {
	benchSteadyTelemetry(b, func(l *winograd.Layer, _, _, dy, _ *tensor.Tensor, dw *winograd.Weights) {
		l.UpdateGradWInto(dw, dy)
	})
}

// BenchmarkTransformFused times the compiled sparse-schedule input
// transform on one F(4,3) tile.
func BenchmarkTransformFused(b *testing.B) {
	tr := winograd.F4x4_3x3
	rng := tensor.NewRNG(6)
	x := tensor.NewMat(tr.T, tr.T)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	dst := tensor.NewMat(tr.T, tr.T)
	tmp := make([]float32, tr.TmpLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.InputToWinogradInto(dst, x, tmp)
	}
}
