package mpt

import (
	"math"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// predictEngine builds an engine whose pre-activations lean negative the
// way a trained ReLU layer's do: non-negative inputs against He weights
// shifted by a constant, so a share of the output tiles is provably
// non-activated.
func predictEngine(t testing.TB, tr *winograd.Transform, p conv.Params, cfg Config, shift float32) (*Engine, *tensor.Tensor) {
	t.Helper()
	e, err := NewEngine(tr, p, cfg, tensor.NewRNG(61))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(62)
	ws := tensor.New(p.Out, p.In, p.K, p.K)
	rng.FillHe(ws, p.In*p.K*p.K)
	for i := range ws.Data {
		ws.Data[i] += shift
	}
	e.SetWeights(winograd.TransformWeights(tr, ws))
	x := tensor.New(4, p.In, p.H, p.W)
	rng.FillUniform(x, 0, 1)
	return e, x
}

// TestFpropReLUPredictionCountersPinned pins the prediction traffic of
// two FpropReLU calls at a fixed seed — the second one on a recalibrated,
// reused predictor — for the 1-D path (F(2×2), Ng = 2: each group holds
// whole tile lines) and the 2-D path (F(4×4), Ng = 32, where this input
// skips nothing; and F(2×2), Ng = 16, which does skip). On perfbench's
// planned AlexNet conv3–5 the F(4×4) predictor skips nothing either,
// but not for overflow alone: 37–40% of those tiles hold an element past
// the quantizer's 4σ range, and the rest are predicted in full without a
// skip. The constants were recorded before prediction moved from the
// MatMul chain onto the transform's term schedules and then onto channel
// lanes: skip decisions are bit-identical, so every counter is too.
func TestFpropReLUPredictionCountersPinned(t *testing.T) {
	p2 := conv.Params{In: 4, Out: 8, K: 3, Pad: 1, H: 12, W: 12}
	p4 := conv.Params{In: 4, Out: 8, K: 3, Pad: 1, H: 16, W: 16}
	for _, tc := range []struct {
		name  string
		tr    *winograd.Transform
		p     conv.Params
		ng    int
		shift float32
		want  Traffic
	}{
		{"1D/F2x2/Ng2", winograd.F2x2_3x3, p2, 2, -0.03,
			Traffic{SkippedTiles: 312, TotalTiles: 2304, GatherBytes: 63744, PredictBytes: 13824}},
		{"2D/F4x4/Ng32", winograd.F4x4_3x3, p4, 32, -0.03,
			Traffic{SkippedTiles: 0, TotalTiles: 1024, GatherBytes: 110592, PredictBytes: 26784}},
		{"2D/F2x2/Ng16", winograd.F2x2_3x3, p2, 16, -0.06,
			Traffic{SkippedTiles: 628, TotalTiles: 2304, GatherBytes: 80448, PredictBytes: 25920}},
	} {
		e, x := predictEngine(t, tc.tr, tc.p, Config{Ng: tc.ng, Nc: 2, Predict: true, ZeroSkip: true}, tc.shift)
		for i := 0; i < 2; i++ {
			if _, err := e.FpropReLU(x); err != nil {
				t.Fatal(err)
			}
		}
		got := Traffic{SkippedTiles: e.Traffic.SkippedTiles, TotalTiles: e.Traffic.TotalTiles,
			GatherBytes: e.Traffic.GatherBytes, PredictBytes: e.Traffic.PredictBytes}
		if got != tc.want {
			t.Errorf("%s: counters %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestFpropReLUPredictionAllocFree: prediction adds no allocation to a
// steady-state FpropReLU — with Predict and ZeroSkip on it allocates
// exactly as many objects as with both off.
func TestFpropReLUPredictionAllocFree(t *testing.T) {
	defer parallel.SetDefaultWorkers(parallel.SetDefaultWorkers(1))
	p := conv.Params{In: 4, Out: 8, K: 3, Pad: 1, H: 12, W: 12}
	for _, c := range []struct {
		tr *winograd.Transform
		ng int
	}{{winograd.F2x2_3x3, 2}, {winograd.F2x2_3x3, 16}, {winograd.F4x4_3x3, 32}} {
		allocs := func(cfg Config) float64 {
			e, x := predictEngine(t, c.tr, p, cfg, -0.06)
			return testing.AllocsPerRun(5, func() {
				if _, err := e.FpropReLU(x); err != nil {
					t.Fatal(err)
				}
			})
		}
		off := allocs(Config{Ng: c.ng, Nc: 2})
		on := allocs(Config{Ng: c.ng, Nc: 2, Predict: true, ZeroSkip: true})
		if on != off {
			t.Errorf("%s Ng=%d: FpropReLU allocates %v objects with prediction, %v without", c.tr, c.ng, on, off)
		}
	}
}

// TestFpropReLUNonFiniteInput: an input holding NaN and Inf has no finite
// σ, so its shards predict nothing — every tile is gathered and counted —
// and FpropReLU neither panics nor changes its output: it stays bitwise
// ReLU(Fprop).
func TestFpropReLUNonFiniteInput(t *testing.T) {
	p := conv.Params{In: 4, Out: 8, K: 3, Pad: 1, H: 12, W: 12}
	for _, ng := range []int{2, 16} {
		cfg := Config{Ng: ng, Nc: 2, Predict: true, ZeroSkip: true}
		e, x := predictEngine(t, winograd.F2x2_3x3, p, cfg, -0.06)
		x.Data[5] = float32(math.NaN())
		x.Data[len(x.Data)-7] = float32(math.Inf(1))
		got, err := e.FpropReLU(x)
		if err != nil {
			t.Fatal(err)
		}
		if e.Traffic.SkippedTiles != 0 || e.Traffic.TotalTiles == 0 {
			t.Fatalf("Ng=%d: non-finite input skipped %d of %d tiles", ng, e.Traffic.SkippedTiles, e.Traffic.TotalTiles)
		}
		want, err := e.Fprop(x)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Data {
			if v < 0 {
				v = 0
			}
			if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
				t.Fatalf("Ng=%d: output[%d] = %v, ReLU(Fprop) = %v", ng, i, got.Data[i], v)
			}
		}
	}
}

func TestNewEngineRejectsBadQuantizer(t *testing.T) {
	for _, c := range []struct {
		regions, bits int
		why           string
	}{
		{3, 6, "32 levels per sign over 3 regions"},
		{64, 8, "a 64-region grid (its top point wrapped, giving Δ = −2)"},
		{1024, 16, "a 1024-region grid (its top point wrapped, giving Δ = −0.125)"},
	} {
		cfg := Config{Ng: 2, Nc: 1, Predict: true, PredictRegions: c.regions, PredictBits: c.bits}
		if _, err := NewEngine(winograd.F2x2_3x3, testP, cfg, tensor.NewRNG(1)); err == nil {
			t.Fatalf("%s accepted", c.why)
		}
	}
}
