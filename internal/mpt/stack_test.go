package mpt

import (
	"math"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// sameBits reports whether a and b hold the same values bit for bit,
// counting any two NaNs as equal (which NaN an operation on two NaNs
// returns is left open by Go, DESIGN.md §8).
func sameBits(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestStackedPassesMatchPerShardEngines: each pass's per-element product
// runs over every cluster's rows at once, and its result equals each
// shard run through its own Nc = 1 engine with the same weights — outputs
// bit for bit (NaN as NaN), prediction skips and traffic counters. The
// grid makes the two differ in GEMM dispatch: one image per cluster gives
// each shard a 4-row product, under the blocked kernel's register-tile
// threshold, while the stacked product has 32 rows and runs blocked. It
// runs with finite weights and with weights holding ±0, +Inf and NaN, on
// the 1-D (Ng = 4) and 2-D (Ng = 16) predictors.
func TestStackedPassesMatchPerShardEngines(t *testing.T) {
	const batch, nc = 8, 8
	p := conv.Params{In: 16, Out: 16, K: 3, Pad: 1, H: 4, W: 4}
	tr := winograd.F2x2_3x3
	rng := tensor.NewRNG(91)
	x := tensor.New(batch, p.In, p.H, p.W)
	rng.FillUniform(x, 0, 1)
	for i := 0; i < len(x.Data); i += 7 {
		x.Data[i] = 0 // zero-skip has values to skip
	}
	dy := tensor.New(batch, p.Out, p.OutH(), p.OutW())
	rng.FillNormal(dy, 0, 1)
	spatial := tensor.New(p.Out, p.In, p.K, p.K)
	rng.FillHe(spatial, p.In*p.K*p.K)
	for i := range spatial.Data {
		spatial.Data[i] -= 0.04 // lean the pre-activations negative, so prediction skips
	}
	finite := winograd.TransformWeights(tr, spatial)
	nonFinite := finite.Clone()
	for e, el := range nonFinite.El {
		el.Data[(5*e)%len(el.Data)] = 0
		el.Data[(5*e+1)%len(el.Data)] = float32(math.Copysign(0, -1))
		if e%5 == 2 {
			el.Data[(3*e+2)%len(el.Data)] = float32(math.Inf(1))
		}
		if e%7 == 3 {
			el.Data[(11*e)%len(el.Data)] = float32(math.NaN())
		}
	}

	image := func(src *tensor.Tensor, c int) *tensor.Tensor {
		out := tensor.New(1, src.C, src.H, src.W)
		stride := src.C * src.H * src.W
		copy(out.Data, src.Data[c*stride:(c+1)*stride])
		return out
	}
	for _, w := range []struct {
		name string
		w    *winograd.Weights
	}{{"finite", finite}, {"nonfinite", nonFinite}} {
		for _, ng := range []int{4, 16} {
			cfg := Config{Ng: ng, Predict: true, ZeroSkip: true}
			// The per-shard references: Nc = 1 engines on one image each.
			var wantF, wantR, wantB []float32
			var wantT Traffic
			for c := 0; c < nc; c++ {
				cfg.Nc = 1
				ref, err := NewEngine(tr, p, cfg, tensor.NewRNG(1))
				if err != nil {
					t.Fatal(err)
				}
				ref.SetWeights(w.w)
				xs, dys := image(x, c), image(dy, c)
				yf, err := ref.Fprop(xs)
				if err != nil {
					t.Fatal(err)
				}
				yr, err := ref.FpropReLU(xs)
				if err != nil {
					t.Fatal(err)
				}
				dx, err := ref.Bprop(dys)
				if err != nil {
					t.Fatal(err)
				}
				wantF, wantR, wantB = append(wantF, yf.Data...), append(wantR, yr.Data...), append(wantB, dx.Data...)
				wantT.add(ref.Traffic)
			}
			t.Logf("%s/Ng=%d: skipped %d of %d", w.name, ng, wantT.SkippedTiles, wantT.TotalTiles)
			if wantT.SkippedTiles == 0 && w.name == "finite" {
				t.Fatalf("%s/Ng=%d: the per-shard engines skip no tile; prediction goes unchecked", w.name, ng)
			}
			for _, workers := range []int{1, 2, 8} {
				prev := parallel.SetDefaultWorkers(workers)
				cfg.Nc = nc
				e, err := NewEngine(tr, p, cfg, tensor.NewRNG(1))
				if err != nil {
					t.Fatal(err)
				}
				e.SetWeights(w.w)
				yf, err := e.Fprop(x)
				if err != nil {
					t.Fatal(err)
				}
				yr, err := e.FpropReLU(x)
				if err != nil {
					t.Fatal(err)
				}
				dx, err := e.Bprop(dy)
				if err != nil {
					t.Fatal(err)
				}
				parallel.SetDefaultWorkers(prev)
				for _, pass := range []struct {
					name      string
					got, want []float32
				}{{"Fprop", yf.Data, wantF}, {"FpropReLU", yr.Data, wantR}, {"Bprop", dx.Data, wantB}} {
					if i, ok := sameBits(pass.got, pass.want); !ok {
						t.Errorf("%s/Ng=%d/workers=%d: %s differs from the per-shard engines at %d",
							w.name, ng, workers, pass.name, i)
					}
				}
				if e.Traffic != wantT {
					t.Errorf("%s/Ng=%d/workers=%d: traffic %+v, per-shard engines %+v",
						w.name, ng, workers, e.Traffic, wantT)
				}
			}
		}
	}
}
