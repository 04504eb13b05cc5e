package sim

import (
	"testing"

	"mptwino/internal/model"
)

func earlyL() model.Layer { return model.FiveLayers()[0] }
func midL() model.Layer   { return model.FiveLayers()[2] }
func lateL() model.Layer  { return model.FiveLayers()[4] }

func TestConfigStrings(t *testing.T) {
	want := []string{"d_dp", "w_dp", "w_mp", "w_mp+", "w_mp*", "w_mp++"}
	for i, c := range AllConfigs() {
		if c.String() != want[i] {
			t.Fatalf("config %d = %q, want %q", i, c, want[i])
		}
	}
}

func TestLayerResultPositive(t *testing.T) {
	s := DefaultSystem()
	for _, c := range AllConfigs() {
		r := s.SimulateLayer(midL(), 256, c)
		if r.ForwardSec <= 0 || r.BackwardSec <= 0 {
			t.Fatalf("%v: non-positive time %+v", c, r)
		}
		if r.Energy.Total() <= 0 {
			t.Fatalf("%v: non-positive energy", c)
		}
		if r.DRAMBytes <= 0 {
			t.Fatalf("%v: no DRAM traffic", c)
		}
	}
}

// TestWinogradBeatsDirectForward: w_dp must be faster than d_dp in the
// forward pass on the feature-map-dominated early/mid layers (the compute
// reduction of Fig. 1/15). On late layers the whole Winograd weight set
// (|W| = 4× |w| under F(4×4,3×3)) is re-streamed per worker, so w_dp can
// legitimately lose there — the data-access increase of Fig. 1 that
// motivates MPT's weight partitioning.
func TestWinogradBeatsDirectForward(t *testing.T) {
	s := DefaultSystem()
	for _, l := range model.FiveLayers()[:2] {
		d := s.SimulateLayer(l, 256, DDp)
		w := s.SimulateLayer(l, 256, WDp)
		if w.ForwardSec >= d.ForwardSec {
			t.Fatalf("%s: w_dp fwd %v not faster than d_dp %v", l.Name, w.ForwardSec, d.ForwardSec)
		}
	}
}

// TestMPTHelpsLateHurtsEarly reproduces the core Fig. 15 narrative: fixed
// (16,16) MPT beats w_dp on late layers and loses on the early layer.
func TestMPTHelpsLateHurtsEarly(t *testing.T) {
	s := DefaultSystem()

	eDP := s.SimulateLayer(earlyL(), 256, WDp)
	eMP := s.SimulateLayer(earlyL(), 256, WMp)
	if eMP.TotalSec() <= eDP.TotalSec() {
		t.Fatalf("early: w_mp (%v) should be slower than w_dp (%v)", eMP.TotalSec(), eDP.TotalSec())
	}

	lDP := s.SimulateLayer(lateL(), 256, WDp)
	lMP := s.SimulateLayer(lateL(), 256, WMp)
	if lMP.TotalSec() >= lDP.TotalSec() {
		t.Fatalf("late: w_mp (%v) should beat w_dp (%v)", lMP.TotalSec(), lDP.TotalSec())
	}
}

// TestPredictionOnlyHelps: adding activation prediction/zero-skip can only
// shrink tile-transfer time, never slow a layer down.
func TestPredictionOnlyHelps(t *testing.T) {
	s := DefaultSystem()
	for _, l := range model.FiveLayers() {
		base := s.SimulateLayer(l, 256, WMp)
		pred := s.SimulateLayer(l, 256, WMpPred)
		if pred.TotalSec() > base.TotalSec()*1.0001 {
			t.Fatalf("%s: prediction slowed layer %v -> %v", l.Name, base.TotalSec(), pred.TotalSec())
		}
	}
}

// TestDynamicClusteringNeverLoses: per layer, w_mp* must match or beat
// both w_dp-like (1,256) and fixed (16,16) behavior, because it picks the
// best configuration from a menu that includes them.
func TestDynamicClusteringNeverLoses(t *testing.T) {
	s := DefaultSystem()
	for _, l := range model.FiveLayers() {
		dyn := s.SimulateLayer(l, 256, WMpDyn)
		fixed := s.SimulateLayer(l, 256, WMp)
		if dyn.TotalSec() > fixed.TotalSec()*1.05 {
			t.Fatalf("%s: dynamic (%v) much worse than fixed (%v)", l.Name, dyn.TotalSec(), fixed.TotalSec())
		}
	}
	// Early layer must pick Ng=1 (Section VII-B).
	r := s.SimulateLayer(earlyL(), 256, WMpDyn)
	if r.Ng != 1 {
		t.Fatalf("early layer dynamic Ng = %d, want 1", r.Ng)
	}
	// Late layer should pick a multi-group configuration.
	r = s.SimulateLayer(lateL(), 256, WMpFull)
	if r.Ng < 4 {
		t.Fatalf("late layer dynamic Ng = %d, want >= 4", r.Ng)
	}
}

// TestFullSpeedupInPaperBallpark checks the headline Fig. 15/17 shape:
// w_mp++ beats w_dp on the five-layer average by a factor comfortably
// above 1.5 (paper: 2.74×) at p=256, B=256.
func TestFullSpeedupBallpark(t *testing.T) {
	s := DefaultSystem()
	var tDP, tFull float64
	for _, l := range model.FiveLayers() {
		tDP += s.SimulateLayer(l, 256, WDp).TotalSec()
		tFull += s.SimulateLayer(l, 256, WMpFull).TotalSec()
	}
	speedup := tDP / tFull
	if speedup < 1.5 {
		t.Fatalf("w_mp++ speedup %v over w_dp, want > 1.5 (paper: 2.74)", speedup)
	}
	if speedup > 6 {
		t.Fatalf("w_mp++ speedup %v suspiciously high (paper: 2.74)", speedup)
	}
}

// TestLateLayerSpeedupLargerThanMid mirrors the paper's 2.24× (mid) vs
// 4.54× (late) ordering for w_mp+.
func TestLateLayerSpeedupLargerThanMid(t *testing.T) {
	s := DefaultSystem()
	mid := s.SimulateLayer(midL(), 256, WDp).TotalSec() /
		s.SimulateLayer(midL(), 256, WMpPred).TotalSec()
	late := s.SimulateLayer(lateL(), 256, WDp).TotalSec() /
		s.SimulateLayer(lateL(), 256, WMpPred).TotalSec()
	if late <= mid {
		t.Fatalf("late speedup %v should exceed mid %v", late, mid)
	}
}

// Test5x5MPTStillWins covers Fig. 16: MPT with dynamic clustering and
// prediction must beat w_dp for 5×5 weights as well, with the late layers
// gaining the most. The paper additionally reports the *average* 5×5
// advantage slightly exceeding 3×3 (3.03× vs 2.74×); in this model's cost
// balance both kernel sizes are compute-bound on the systolic array and
// the 5×5 average lands somewhat below 3×3 instead — the absolute
// weight-collective saving is still ~3× larger for 5×5, matching the
// mechanism the paper cites. EXPERIMENTS.md records the deviation.
func Test5x5MPTStillWins(t *testing.T) {
	s := DefaultSystem()
	ratioFor := func(l model.Layer) float64 {
		return s.SimulateLayer(l, 256, WDp).TotalSec() /
			s.SimulateLayer(l, 256, WMpFull).TotalSec()
	}
	layers5 := model.FiveLayers5x5()
	var mean float64
	for _, l := range layers5 {
		mean += ratioFor(l)
	}
	mean /= float64(len(layers5))
	if mean < 1.3 {
		t.Fatalf("5x5 mean MPT speedup %v, want > 1.3", mean)
	}
	late := ratioFor(layers5[4])
	if late < 3 {
		t.Fatalf("5x5 late-layer speedup %v, want > 3", late)
	}
	// The 5×5 weight-collective saving must exceed the 3×3 saving in
	// absolute terms (the paper's stated mechanism).
	save := func(layers []model.Layer) float64 {
		l := layers[4]
		dp := s.SimulateLayer(l, 256, WDp)
		mp := s.SimulateLayer(l, 256, WMpFull)
		return dp.BackwardSec - mp.BackwardSec
	}
	if save(model.FiveLayers5x5()) <= save(model.FiveLayers()) {
		t.Fatal("5x5 should save more absolute backward time than 3x3")
	}
}

func TestSimulateNetworkAggregates(t *testing.T) {
	s := DefaultSystem()
	net := model.WRN40x10()
	r := s.SimulateNetwork(net, WMpFull)
	if len(r.Layers) != len(net.Layers) {
		t.Fatal("per-layer results missing")
	}
	if r.IterationSec <= 0 || r.ImagesPerSec <= 0 || r.PowerW <= 0 {
		t.Fatalf("bad aggregates: %+v", r)
	}
	// Iteration must be at least the sum of one pass over unique layers.
	var minimum float64
	for _, lr := range r.Layers {
		minimum += lr.TotalSec()
	}
	if r.IterationSec < minimum {
		t.Fatal("Repeat not applied")
	}
}

// TestScalabilityVs1NDP: 256 workers must be dramatically faster than 1,
// and w_mp++ must scale better than w_dp (Fig. 17: 71× vs 191×).
func TestScalabilityVs1NDP(t *testing.T) {
	net := model.FractalNet44()
	base := SingleWorkerBaseline(net)
	s := DefaultSystem()
	dp := Speedup(s.SimulateNetwork(net, WDp), base)
	full := Speedup(s.SimulateNetwork(net, WMpFull), base)
	if dp < 10 {
		t.Fatalf("w_dp speedup %v over 1 NDP too small", dp)
	}
	if full <= dp {
		t.Fatalf("w_mp++ speedup %v should exceed w_dp %v", full, dp)
	}
	if full/dp < 1.3 {
		t.Fatalf("w_mp++/w_dp ratio %v, want > 1.3 (paper: 2.7)", full/dp)
	}
}

// TestEnergyMPTReducesDRAM: MPT partitions weights, so per-iteration DRAM
// energy must not exceed w_dp's (Fig. 15 energy discussion).
func TestEnergyMPTReducesDRAM(t *testing.T) {
	s := DefaultSystem()
	l := lateL()
	dp := s.SimulateLayer(l, 256, WDp)
	mp := s.SimulateLayer(l, 256, WMp)
	if mp.Energy.DRAMJ > dp.Energy.DRAMJ {
		t.Fatalf("MPT DRAM energy %v exceeds w_dp %v", mp.Energy.DRAMJ, dp.Energy.DRAMJ)
	}
}

func TestCollectiveSecondsEdgeCases(t *testing.T) {
	s := DefaultSystem()
	if s.collectiveSeconds(1024, 1, 1e9) != 0 {
		t.Fatal("1-worker collective should be free")
	}
	if s.collectiveSeconds(0, 8, 1e9) != 0 {
		t.Fatal("empty collective should be free")
	}
	// Time grows with message size.
	if s.collectiveSeconds(1<<20, 16, 60e9) <= s.collectiveSeconds(1<<10, 16, 60e9) {
		t.Fatal("collective time not monotone in size")
	}
}

func TestMeanTileHops(t *testing.T) {
	if meanTileHops(1) != 0 || meanTileHops(4) != 1 || meanTileHops(16) != 1.6 {
		t.Fatal("hop model wrong")
	}
}

func TestBandwidthSplit(t *testing.T) {
	s := DefaultSystem()
	if s.ringBW(WDp) != s.LinkBW {
		t.Fatal("data-parallel should use all links for rings")
	}
	if s.ringBW(WMp) != s.LinkBW/2 {
		t.Fatal("MPT rings should get half the links")
	}
	// The tile fabric gets the other half: with no latency or congestion
	// derate, a one-hop (4-worker) cell moves bytes at exactly LinkBW/2.
	s.SerDesSec, s.TileCongestion = 0, 1
	const bytes = 1 << 30
	if bw := bytes / s.tileSeconds(bytes, 4); bw != s.LinkBW/2 {
		t.Fatalf("tile fabric bandwidth %g, want %g", bw, s.LinkBW/2)
	}
	if s.tileSeconds(bytes, 1) != 0 {
		t.Fatal("a one-worker cell has no tile fabric")
	}
}

// TestBreakdownConsistency: the reported pass duration must equal the
// overlap rule applied to the exported breakdown.
func TestBreakdownConsistency(t *testing.T) {
	s := DefaultSystem()
	for _, l := range model.FiveLayers() {
		for _, c := range AllConfigs() {
			r := s.SimulateLayer(l, 256, c)
			check := func(sec float64, b Breakdown, pass string) {
				m := b.SystolicSec
				for _, v := range []float64{b.VectorSec, b.DRAMSec, b.TileCommSec} {
					if v > m {
						m = v
					}
				}
				want := m + b.CollSec
				if diff := sec - want; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("%s/%v %s: %v != breakdown %v", l.Name, c, pass, sec, want)
				}
			}
			check(r.ForwardSec, r.Forward, "fwd")
			check(r.BackwardSec, r.Backward, "bwd")
		}
	}
}

// TestBreakdownBindings: the resource that binds each regime must match
// the paper's explanation — early-layer MPT is tile-comm-bound; late-layer
// w_dp forward is DRAM-bound (Winograd weight streaming); d_dp forward is
// systolic-bound.
func TestBreakdownBindings(t *testing.T) {
	s := DefaultSystem()
	early := s.SimulateLayer(model.FiveLayers()[0], 256, WMp)
	if got := early.Forward.Binding(); got != "tile-comm" {
		t.Fatalf("early w_mp forward bound by %q, want tile-comm", got)
	}
	// Late-layer w_dp forward is local-resource bound (systolic passes
	// with tiny per-worker row counts, plus streaming the whole 75 MB |W|
	// from DRAM) — never communication-bound.
	late := s.SimulateLayer(model.FiveLayers()[4], 256, WDp)
	if got := late.Forward.Binding(); got != "dram" && got != "systolic" {
		t.Fatalf("late w_dp forward bound by %q, want dram or systolic", got)
	}
	if late.Forward.DRAMSec < 0.3*late.ForwardSec {
		t.Fatalf("late w_dp forward DRAM share %v too small — weight streaming missing",
			late.Forward.DRAMSec/late.ForwardSec)
	}
	direct := s.SimulateLayer(model.FiveLayers()[0], 256, DDp)
	if got := direct.Forward.Binding(); got != "systolic" {
		t.Fatalf("early d_dp forward bound by %q, want systolic", got)
	}
	// Late w_dp backward must be dominated by the serialized collective or
	// DRAM, never the tile fabric (there is none at Ng=1).
	if late.Backward.TileCommSec != 0 {
		t.Fatal("Ng=1 must not use the tile fabric")
	}
}

// TestForwardHasNoCollective: weight collectives happen in updateGrad only.
func TestForwardHasNoCollective(t *testing.T) {
	s := DefaultSystem()
	for _, c := range AllConfigs() {
		r := s.SimulateLayer(model.FiveLayers()[2], 256, c)
		if r.Forward.CollSec != 0 {
			t.Fatalf("%v: forward pass charged collective time", c)
		}
		if r.BackwardSec <= 0 {
			t.Fatalf("%v: empty backward", c)
		}
	}
}
