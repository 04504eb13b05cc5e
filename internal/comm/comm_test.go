package comm

import (
	"math"
	"testing"
	"testing/quick"

	"math/rand"

	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/winograd"
)

var earlyLayer = conv.Params{In: 64, Out: 128, K: 3, Pad: 1, H: 112, W: 112}
var lateLayer = conv.Params{In: 512, Out: 512, K: 3, Pad: 1, H: 7, W: 7}

func TestRingCollectivePerWorker(t *testing.T) {
	if RingCollectivePerWorker(1000, 1) != 0 {
		t.Fatal("single worker should not communicate")
	}
	// (p-1)/p of the message per worker.
	if got := RingCollectivePerWorker(1000, 4); got != 750 {
		t.Fatalf("got %d, want 750", got)
	}
	// Approaches the full message size with large p.
	if got := RingCollectivePerWorker(1000, 1000); got != 999 {
		t.Fatalf("got %d, want 999", got)
	}
}

func TestTileTransferPerWorker(t *testing.T) {
	tr := winograd.F2x2_3x3
	if f, b := PhaseVolumes(tr, earlyLayer, 256, Strategy{Ng: 1, Nc: 256, Winograd: true}); f != (TileTraffic{}) || b != (TileTraffic{}) {
		t.Fatalf("single group should not transfer tiles: fprop %+v bprop %+v", f, b)
	}
	// Two axes: tiles/(nc·ng) held, (ng-1)/ng leaves, no partial sums.
	f, b := PhaseVolumes(tr, earlyLayer, 256, Strategy{Ng: 4, Nc: 64, Winograd: true})
	in := TileBytes(tr, earlyLayer, 256, earlyLayer.In) / 64 / 4 * 3 / 4
	out := TileBytes(tr, earlyLayer, 256, earlyLayer.Out) / 64 / 4 * 3 / 4
	if want := (TileTraffic{Scatter: in, Gather: out}); f != want {
		t.Fatalf("fprop %+v, want %+v", f, want)
	}
	if want := (TileTraffic{Scatter: out, Gather: in}); b != want {
		t.Fatalf("bprop %+v, want %+v", b, want)
	}
}

func TestWeightBytes(t *testing.T) {
	if got := SpatialWeightBytes(lateLayer); got != 4*512*512*9 {
		t.Fatalf("spatial = %d", got)
	}
	if got := WinogradWeightBytes(winograd.F2x2_3x3, lateLayer); got != 4*512*512*16 {
		t.Fatalf("winograd = %d", got)
	}
}

func TestTileBytes(t *testing.T) {
	// 7x7 output with m=2 → 4x4 tile grid; 16 tiles × T²=16 els × 4B.
	got := TileBytes(winograd.F2x2_3x3, lateLayer, 256, 512)
	want := int64(4) * 256 * 16 * 512 * 16
	if got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestStrategyValidate(t *testing.T) {
	if err := (Strategy{Ng: 0, Nc: 1}).Validate(); err == nil {
		t.Fatal("Ng=0 accepted")
	}
	if err := (Strategy{Ng: 1, Nc: 1, GatherReduction: 1.5}).Validate(); err == nil {
		t.Fatal("reduction > 1 accepted")
	}
	if err := (Strategy{Ng: 16, Nc: 16}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDataParallelWeightConstant reproduces the paper's scalability
// observation: data-parallel per-worker weight traffic is nearly constant
// in p, while MPT traffic shrinks.
func TestDataParallelWeightConstant(t *testing.T) {
	tr := winograd.F2x2_3x3
	v64 := LayerVolumes(tr, lateLayer, 256, Strategy{Ng: 1, Nc: 64, Winograd: true})
	v256 := LayerVolumes(tr, lateLayer, 256, Strategy{Ng: 1, Nc: 256, Winograd: true})
	ratio := float64(v256.Weight) / float64(v64.Weight)
	if ratio < 0.99 || ratio > 1.02 {
		t.Fatalf("dp weight traffic not ~constant: ratio %v", ratio)
	}

	m64 := LayerVolumes(tr, lateLayer, 256, Strategy{Ng: 8, Nc: 8, Winograd: true})
	m256 := LayerVolumes(tr, lateLayer, 256, Strategy{Ng: 16, Nc: 16, Winograd: true})
	if m256.Weight >= m64.Weight {
		t.Fatalf("MPT weight traffic should shrink with p: %d -> %d", m64.Weight, m256.Weight)
	}
}

// TestMPTWeightFormula checks the Section III-C expression
// |W|/Ng · (Nc−1)/Nc exactly.
func TestMPTWeightFormula(t *testing.T) {
	tr := winograd.F2x2_3x3
	s := Strategy{Ng: 16, Nc: 16, Winograd: true}
	v := LayerVolumes(tr, lateLayer, 256, s)
	want := RingCollectivePerWorker(WinogradWeightBytes(tr, lateLayer)/16, 16)
	if v.Weight != want {
		t.Fatalf("weight = %d, want %d", v.Weight, want)
	}
}

// TestTileVsWeightByLayerClass reproduces Fig. 6's comparison at p=256:
// for the early layer (huge feature maps) MPT's added tile transfer makes
// it communicate *more* than data parallelism, while for the late layer
// (large weights) MPT communicates less — the imbalance dynamic clustering
// exists to exploit.
func TestTileVsWeightByLayerClass(t *testing.T) {
	tr := winograd.F2x2_3x3
	mpt := Strategy{Ng: 16, Nc: 16, Winograd: true}
	dp := Strategy{Ng: 1, Nc: 256, Winograd: true}

	earlyMPT := LayerVolumes(tr, earlyLayer, 256, mpt)
	earlyDP := LayerVolumes(tr, earlyLayer, 256, dp)
	if earlyMPT.Total() < 10*earlyDP.Total() {
		t.Fatalf("early layer: MPT (%d) should dwarf dp (%d)", earlyMPT.Total(), earlyDP.Total())
	}
	// And the early layer under MPT must be tile-dominated.
	if earlyMPT.TileGather+earlyMPT.TileScatter < 10*earlyMPT.Weight {
		t.Fatalf("early layer should be tile-dominated: %+v", earlyMPT)
	}

	lateMPT := LayerVolumes(tr, lateLayer, 256, mpt)
	lateDP := LayerVolumes(tr, lateLayer, 256, dp)
	if lateMPT.Total() >= lateDP.Total() {
		t.Fatalf("late layer: MPT (%d) should beat dp (%d)", lateMPT.Total(), lateDP.Total())
	}
}

// Property: total per-worker MPT traffic decreases monotonically as p
// grows with Ng=Nc=√p (Fig. 7's key trend), for any layer geometry.
func TestMPTTrafficShrinksWithP(t *testing.T) {
	f := func(seed uint64) bool {
		r := newRand(seed)
		p := conv.Params{
			In:  8 << r.Intn(4),
			Out: 8 << r.Intn(4),
			K:   3, Pad: 1,
			H: 8 << r.Intn(4), W: 8 << r.Intn(4),
		}
		tr := winograd.F2x2_3x3
		prev := int64(math.MaxInt64)
		for _, root := range []int{2, 4, 8, 16} {
			v := LayerVolumes(tr, p, 256, Strategy{Ng: root, Nc: root, Winograd: true})
			if v.Total() > prev {
				return false
			}
			prev = v.Total()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestOneDOptimizationShrinksGather(t *testing.T) {
	tr := winograd.F2x2_3x3 // T=4, m=2
	// Ng=4 holds whole lines → gather shrinks by m/T = 1/2 vs element case.
	s4 := Strategy{Ng: 4, Nc: 64, Winograd: true}
	s16 := Strategy{Ng: 16, Nc: 16, Winograd: true}
	v4 := LayerVolumes(tr, earlyLayer, 256, s4)
	v16 := LayerVolumes(tr, earlyLayer, 256, s16)
	// Per the formulas, gather_4 = tiles/(256)·(3/4)·(1/2) and
	// gather_16 = tiles/(256)·(15/16); confirm the 1-D factor is present.
	f4, b4 := PhaseVolumes(tr, earlyLayer, 256, s4)
	wantG4 := (f4.Gather + b4.Gather) / 2
	if v4.TileGather != wantG4 {
		t.Fatalf("1D gather = %d, want %d", v4.TileGather, wantG4)
	}
	if v16.TileGather <= v4.TileGather {
		t.Fatal("16-group gather should exceed 4-group (no 1-D optimization)")
	}
}

func TestReductionsApplied(t *testing.T) {
	tr := winograd.F2x2_3x3
	base := Strategy{Ng: 16, Nc: 16, Winograd: true}
	red := Strategy{Ng: 16, Nc: 16, Winograd: true, GatherReduction: 0.34, ScatterReduction: 0.393}
	vb := LayerVolumes(tr, earlyLayer, 256, base)
	vr := LayerVolumes(tr, earlyLayer, 256, red)
	if got, want := vr.TileGather, int64(float64(vb.TileGather)*0.66); got != want {
		t.Fatalf("gather reduction: got %d, want %d", got, want)
	}
	if got, want := vr.TileScatter, int64(float64(vb.TileScatter)*0.607); got != want {
		t.Fatalf("scatter reduction: got %d, want %d", got, want)
	}
	if vr.Weight != vb.Weight {
		t.Fatal("reductions must not touch weight traffic")
	}
}

func TestDefaultConfigs(t *testing.T) {
	cfgs := DefaultConfigs(256)
	if len(cfgs) != 3 {
		t.Fatalf("want 3 configs for p=256, got %v", cfgs)
	}
	want := []ClusterConfig{{16, 16}, {4, 64}, {1, 256}}
	for i, w := range want {
		if cfgs[i] != w {
			t.Fatalf("configs = %v", cfgs)
		}
	}
	// p=8 drops the 16-group wiring.
	cfgs = DefaultConfigs(8)
	if len(cfgs) != 2 || cfgs[0].Ng != 4 {
		t.Fatalf("p=8 configs = %v", cfgs)
	}
}

// TestDynamicClusteringPrefersDataParallelEarly: early layers should pick
// Ng=1 (pure data parallelism) and late layers Ng=16 — the Section VII-B
// narrative ("w_mp+ was configured as (1,256)" for Early).
func TestDynamicClusteringByLayer(t *testing.T) {
	f := DefaultFabric()
	red := PaperReductions()
	cfgE, _ := ChooseClustering(earlyLayer, 256, DefaultConfigs(256), f, true, red)
	if cfgE.Ng != 1 {
		t.Fatalf("early layer chose Ng=%d, want 1", cfgE.Ng)
	}
	cfgL, _ := ChooseClustering(lateLayer, 256, DefaultConfigs(256), f, true, red)
	if cfgL.Ng < 4 {
		t.Fatalf("late layer chose Ng=%d, want >= 4", cfgL.Ng)
	}
}

// TestDynamicBeatsFixed: over a whole network, dynamic clustering's
// communication time must never exceed the best fixed configuration
// (Fig. 7 reports ~1.4× reduction at p=256 vs fixed √p×√p).
func TestDynamicBeatsFixed(t *testing.T) {
	net := model.FractalNet44()
	f := DefaultFabric()
	red := PaperReductions()
	dyn, choices := NetworkVolumesDynamic(net, 256, f, true, red)
	if len(choices) != len(net.Layers) {
		t.Fatal("choice per layer missing")
	}
	dynTime := f.EstimateTime(dyn)
	for _, cfg := range DefaultConfigs(256) {
		s, tr := StrategyFor(cfg, 3, true, red)
		fixed := NetworkVolumes(net, tr, s)
		if dynTime > f.EstimateTime(fixed)*1.0001 {
			t.Fatalf("dynamic (%v) worse than fixed %+v (%v)", dynTime, cfg, f.EstimateTime(fixed))
		}
	}
}

func TestStrategyForTransformSelection(t *testing.T) {
	s, tr := StrategyFor(ClusterConfig{Ng: 1, Nc: 256}, 3, false, Reductions{})
	if tr != winograd.F4x4_3x3 || s.Ng != 1 {
		t.Fatal("Ng=1 should select F(4x4,3x3)")
	}
	_, tr = StrategyFor(ClusterConfig{Ng: 16, Nc: 16}, 3, false, Reductions{})
	if tr != winograd.F2x2_3x3 {
		t.Fatal("Ng=16 should select F(2x2,3x3)")
	}
	_, tr = StrategyFor(ClusterConfig{Ng: 4, Nc: 64}, 5, false, Reductions{})
	if tr != winograd.F2x2_5x5 {
		t.Fatal("k=5 should select F(2x2,5x5)")
	}
}

func TestReductionsGet(t *testing.T) {
	r := PaperReductions()
	g, s := r.Get(4, 1)
	if g != 0 || s != 0 {
		t.Fatal("single group should have no reductions")
	}
	g, s = r.Get(4, 4)
	if g != r.Gather1D || s != r.Scatter1D {
		t.Fatal("whole-line groups should use 1-D reductions")
	}
	g, s = r.Get(4, 16)
	if g != r.Gather2D || s != r.Scatter2D {
		t.Fatal("element groups should use 2-D reductions")
	}
}

func TestNetworkVolumesRespectsRepeatAndGatherScale(t *testing.T) {
	tr := winograd.F2x2_3x3
	s := Strategy{Ng: 16, Nc: 16, Winograd: true}
	l := model.Layer{Name: "x", P: lateLayer}
	net1 := model.Network{Name: "n1", Batch: 256, Layers: []model.Layer{l}}
	l2 := l
	l2.Repeat = 3
	net3 := model.Network{Name: "n3", Batch: 256, Layers: []model.Layer{l2}}
	v1 := NetworkVolumes(net1, tr, s)
	v3 := NetworkVolumes(net3, tr, s)
	if v3.Total() != 3*v1.Total() {
		t.Fatalf("repeat not honored: %d vs %d", v3.Total(), v1.Total())
	}
	lg := l
	lg.GatherScale = 0.5
	netG := model.Network{Name: "ng", Batch: 256, Layers: []model.Layer{lg}}
	vg := NetworkVolumes(netG, tr, s)
	if vg.TileGather != v1.TileGather/2 {
		t.Fatalf("gather scale not honored: %d vs %d", vg.TileGather, v1.TileGather)
	}
}

func TestModelCatalogSanity(t *testing.T) {
	wrn := model.WRN40x10()
	// Table I: WRN-40-10 has ≈55.5M 3×3 parameters.
	if pc := wrn.ParamCount(); pc < 54e6 || pc > 57e6 {
		t.Fatalf("WRN-40-10 params = %d, want ~55.5M", pc)
	}
	rn := model.ResNet34()
	if pc := rn.ParamCount(); pc < 19e6 || pc > 24e6 {
		t.Fatalf("ResNet-34 params = %d, want ~21M", pc)
	}
	fn := model.FractalNet44()
	// Table I: ≈164M; our reconstruction lands within ~15%.
	if pc := fn.ParamCount(); pc < 140e6 || pc > 195e6 {
		t.Fatalf("FractalNet params = %d, want ~164M", pc)
	}
	if len(model.FiveLayers()) != 5 || len(model.FiveLayers5x5()) != 5 {
		t.Fatal("five-layer catalogs wrong length")
	}
	for _, l := range model.FiveLayers5x5() {
		if l.P.K != 5 || l.P.Pad != 2 {
			t.Fatalf("5x5 variant wrong: %+v", l.P)
		}
	}
}

// newRand adapts tensor's RNG without importing it (avoid a test-only dep
// cycle); SplitMix64 inline.
type testRand struct{ s uint64 }

func newRand(seed uint64) *testRand { return &testRand{s: seed} }

func (r *testRand) Intn(n int) int {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// TestChooseClusteringFor5x5 exercises dynamic clustering under the 5×5
// kernel menu: the chooser must return a valid configuration and stay
// deterministic.
func TestChooseClusteringFor5x5(t *testing.T) {
	f := DefaultFabric()
	red := PaperReductions()
	l := model.FiveLayers5x5()[3]
	cfg1, v1 := ChooseClustering(l.P, 256, DefaultConfigs(256), f, true, red)
	cfg2, v2 := ChooseClustering(l.P, 256, DefaultConfigs(256), f, true, red)
	if cfg1 != cfg2 || v1 != v2 {
		t.Fatal("ChooseClustering not deterministic")
	}
	if cfg1.Ng*cfg1.Nc != 256 {
		t.Fatalf("chosen config %+v does not cover 256 workers", cfg1)
	}
}

// TestEstimateTimeComposition: the fabric time estimate must be the sum of
// the two fabrics' terms with the collective counted both directions.
func TestEstimateTimeComposition(t *testing.T) {
	fab := Fabric{RingBW: 10e9, TileBW: 5e9}
	v := Volumes{Weight: 10e9, TileGather: 5e9, TileScatter: 5e9}
	got := fab.EstimateTime(v)
	want := 2.0*10e9/10e9 + (5e9+5e9)/5e9
	if got != want {
		t.Fatalf("EstimateTime = %v, want %v", got, want)
	}
}

// TestVolumesTotalAndScale covers the arithmetic helpers.
func TestVolumesTotalAndScale(t *testing.T) {
	v := Volumes{Weight: 1, TileGather: 2, TileScatter: 3}
	if v.Total() != 6 {
		t.Fatalf("Total = %d", v.Total())
	}
	s := v.scale(3)
	if s.Weight != 3 || s.TileGather != 6 || s.TileScatter != 9 {
		t.Fatalf("scale = %+v", s)
	}
	a := v.add(s)
	if a.Total() != 24 {
		t.Fatalf("add = %+v", a)
	}
}
