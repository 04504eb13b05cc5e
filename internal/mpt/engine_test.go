package mpt

import (
	"math"
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

var testP = conv.Params{In: 3, Out: 4, K: 3, Pad: 1, H: 8, W: 8}

// refLayer builds a single-worker Winograd layer sharing the engine's
// weights.
func refLayer(t *testing.T, e *Engine) *winograd.Layer {
	t.Helper()
	tl, err := winograd.NewTiling(e.Tr, e.P)
	if err != nil {
		t.Fatal(err)
	}
	return winograd.NewLayerFromParts(tl, e.Weights().Clone())
}

func TestNewEngineValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 0, Nc: 1}, rng); err == nil {
		t.Fatal("Ng=0 accepted")
	}
	if _, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 17, Nc: 1}, rng); err == nil {
		t.Fatal("Ng > T^2 accepted")
	}
	if _, err := NewEngine(winograd.F2x2_3x3, conv.Params{In: 1, Out: 1, K: 5, Pad: 2, H: 8, W: 8},
		Config{Ng: 1, Nc: 1}, rng); err == nil {
		t.Fatal("kernel/transform mismatch accepted")
	}
}

// TestDistributedFpropExact: for every (Ng, Nc) organization, the
// distributed forward pass must equal the single-worker Winograd layer.
func TestDistributedFpropExact(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := tensor.New(8, testP.In, testP.H, testP.W)
	rng.FillNormal(x, 0, 1)
	for _, cfg := range []Config{
		{Ng: 1, Nc: 1}, {Ng: 1, Nc: 8}, {Ng: 4, Nc: 2}, {Ng: 16, Nc: 4}, {Ng: 8, Nc: 8},
	} {
		e, err := NewEngine(winograd.F2x2_3x3, testP, cfg, tensor.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		ref := refLayer(t, e)
		want := ref.Fprop(x)
		got, err := e.Fprop(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-5 {
			t.Fatalf("cfg %+v: fprop diverges %v", cfg, d)
		}
	}
}

func TestDistributedBpropExact(t *testing.T) {
	rng := tensor.NewRNG(5)
	dy := tensor.New(8, testP.Out, testP.OutH(), testP.OutW())
	rng.FillNormal(dy, 0, 1)
	for _, cfg := range []Config{{Ng: 4, Nc: 4}, {Ng: 16, Nc: 2}} {
		e, err := NewEngine(winograd.F2x2_3x3, testP, cfg, tensor.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		ref := refLayer(t, e)
		want := ref.Bprop(dy)
		got, err := e.Bprop(dy)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-5 {
			t.Fatalf("cfg %+v: bprop diverges %v", cfg, d)
		}
	}
}

// TestDistributedUpdateGradExact: the ring-reduced dW must match the
// single-worker gradient over the whole batch, for uneven shard splits
// too.
func TestDistributedUpdateGradExact(t *testing.T) {
	rng := tensor.NewRNG(11)
	x := tensor.New(6, testP.In, testP.H, testP.W) // 6 images over Nc=4: uneven shards
	dy := tensor.New(6, testP.Out, testP.OutH(), testP.OutW())
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(dy, 0, 1)
	for _, cfg := range []Config{{Ng: 4, Nc: 4}, {Ng: 16, Nc: 3}, {Ng: 2, Nc: 6}} {
		e, err := NewEngine(winograd.F2x2_3x3, testP, cfg, tensor.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		ref := refLayer(t, e)
		ref.Fprop(x)
		want := ref.UpdateGradW(dy)
		if _, err := e.Fprop(x); err != nil {
			t.Fatal(err)
		}
		got, err := e.UpdateGrad(dy)
		if err != nil {
			t.Fatal(err)
		}
		for el := range want.El {
			for i := range want.El[el].Data {
				d := math.Abs(float64(want.El[el].Data[i] - got.El[el].Data[i]))
				if d > 1e-3 {
					t.Fatalf("cfg %+v: dW element %d diverges by %v", cfg, el, d)
				}
			}
		}
	}
}

// TestRingAllReduceMatchesRingOrderSum pins the ring's addition order:
// UpdateGrad's dW equals, bit for bit, every chunk k of a group's shard
// summed in float32 as p_k + p_{k+1} + … + p_{k+Nc−1} (indices mod Nc),
// where p_c is cluster c's partial dW from an Nc = 1 engine on its shard.
// In·Out = 77 is odd and prime to 3 and 5, so a group's shard of 16
// (Ng = 1) or 4 (Ng = 4) elements of 77 values splits into uneven chunks
// at Nc = 3 and 5, and at Nc = 8 with Ng = 4; every F(2×2) shard length
// is even and Ng = 1's is a multiple of 16, so Nc = 1 and 2, and Nc = 8
// with Ng = 1, cut even ones. Each grid runs at workers {1, 2, 8}: the
// scatter phase writes every cluster's partial into its ring region, and
// the ring reads them after the fan-out.
func TestRingAllReduceMatchesRingOrderSum(t *testing.T) {
	p := conv.Params{In: 7, Out: 11, K: 3, Pad: 1, H: 4, W: 4}
	tr := winograd.F2x2_3x3
	const batch = 9
	rng := tensor.NewRNG(61)
	x := tensor.New(batch, p.In, p.H, p.W)
	dy := tensor.New(batch, p.Out, p.OutH(), p.OutW())
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(dy, 0, 1)
	spatial := tensor.New(p.Out, p.In, p.K, p.K)
	rng.FillHe(spatial, p.In*p.K*p.K)
	w := winograd.TransformWeights(tr, spatial)
	flat := func(w *winograd.Weights) []float32 {
		var out []float32
		for _, el := range w.El {
			out = append(out, el.Data...)
		}
		return out
	}
	// The ring's CollectiveBytes per (Nc, Ng), pinned.
	wantBytes := map[[2]int]int64{
		{1, 1}: 0, {1, 4}: 0,
		{2, 1}: 9856, {2, 4}: 9856,
		{3, 1}: 19711, {3, 4}: 19708,
		{5, 1}: 39422, {5, 4}: 39412,
		{8, 1}: 68992, {8, 4}: 68992,
	}
	elLen := p.In * p.Out
	for _, nc := range []int{1, 2, 3, 5, 8} {
		for _, ng := range []int{1, 4} {
			cfg := Config{Ng: ng, Nc: nc}
			bounds, err := shardBoundsFor(batch, nc, nil)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([][]float32, nc)
			for c, b := range bounds {
				ref, err := NewEngine(tr, p, Config{Ng: ng, Nc: 1}, tensor.NewRNG(7))
				if err != nil {
					t.Fatal(err)
				}
				ref.SetWeights(w)
				var xs, dys tensor.Tensor
				if _, err := ref.Fprop(shardView(&xs, x, b[0], b[1])); err != nil {
					t.Fatal(err)
				}
				dw, err := ref.UpdateGrad(shardView(&dys, dy, b[0], b[1]))
				if err != nil {
					t.Fatal(err)
				}
				parts[c] = flat(dw)
			}
			want := append([]float32(nil), parts[0]...)
			for g := 0; g < ng; g++ {
				els := winograd.GroupElements(tr.T, ng, g)
				off, shardLen := els[0]*elLen, len(els)*elLen
				for k := 0; k < nc; k++ {
					lo, hi := off+k*shardLen/nc, off+(k+1)*shardLen/nc
					sum := want[lo:hi]
					copy(sum, parts[k][lo:hi])
					for j := 1; j < nc; j++ {
						for i, v := range parts[(k+j)%nc][lo:hi] {
							sum[i] += v
						}
					}
				}
			}
			for _, workers := range []int{1, 2, 8} {
				prev := parallel.SetDefaultWorkers(workers)
				e, err := NewEngine(tr, p, cfg, tensor.NewRNG(7))
				if err != nil {
					t.Fatal(err)
				}
				e.SetWeights(w)
				if _, err := e.Fprop(x); err != nil {
					t.Fatal(err)
				}
				dw, err := e.UpdateGrad(dy)
				parallel.SetDefaultWorkers(prev)
				if err != nil {
					t.Fatal(err)
				}
				if i, ok := sameBits(flat(dw), want); !ok {
					t.Errorf("Nc=%d Ng=%d workers=%d: dW differs from the ring-order sum at %d", nc, ng, workers, i)
				}
				if got := e.Traffic.CollectiveBytes; got != wantBytes[[2]int{nc, ng}] {
					t.Errorf("Nc=%d Ng=%d workers=%d: CollectiveBytes %d, want %d", nc, ng, workers, got, wantBytes[[2]int{nc, ng}])
				}
			}
		}
	}
}

func TestUpdateGradBeforeFpropErrors(t *testing.T) {
	e, _ := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 4, Nc: 2}, tensor.NewRNG(1))
	if _, err := e.UpdateGrad(tensor.New(4, testP.Out, 8, 8)); err == nil {
		t.Fatal("UpdateGrad before Fprop accepted")
	}
}

func TestBatchSmallerThanNcErrors(t *testing.T) {
	e, _ := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 1, Nc: 8}, tensor.NewRNG(1))
	x := tensor.New(4, testP.In, 8, 8)
	if _, err := e.Fprop(x); err == nil {
		t.Fatal("batch < Nc accepted")
	}
}

// TestDistributedTrainingMatchesSingleWorker runs several full SGD steps
// distributed and single-worker from identical weights and checks the
// weights stay equal — MPT is an exact reorganization of the computation.
func TestDistributedTrainingMatchesSingleWorker(t *testing.T) {
	rng := tensor.NewRNG(13)
	e, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 4, Nc: 4}, tensor.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	ref := refLayer(t, e)
	x := tensor.New(8, testP.In, testP.H, testP.W)
	target := tensor.New(8, testP.Out, testP.OutH(), testP.OutW())
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(target, 0, 1)

	for step := 0; step < 4; step++ {
		yr := ref.Fprop(x)
		dyr := yr.Clone()
		dyr.AXPY(-1, target)
		ref.Step(0.01, ref.UpdateGradW(dyr))

		ye, err := e.Fprop(x)
		if err != nil {
			t.Fatal(err)
		}
		dye := ye.Clone()
		dye.AXPY(-1, target)
		dw, err := e.UpdateGrad(dye)
		if err != nil {
			t.Fatal(err)
		}
		e.Step(0.01, dw)
	}
	for el := range ref.W.El {
		for i := range ref.W.El[el].Data {
			d := math.Abs(float64(ref.W.El[el].Data[i] - e.Weights().El[el].Data[i]))
			if d > 1e-3 {
				t.Fatalf("weights diverged after training: element %d, diff %v", el, d)
			}
		}
	}
}

// TestFpropReLUWithPredictionExact: activation prediction must not change
// the post-ReLU output while actually skipping some tile gathers.
func TestFpropReLUWithPredictionExact(t *testing.T) {
	rng := tensor.NewRNG(17)
	// Negative-biased inputs so many output tiles are fully non-activated.
	x := tensor.New(8, testP.In, testP.H, testP.W)
	rng.FillNormal(x, -0.6, 1)

	plain, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 4, Nc: 2}, tensor.NewRNG(29))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 4, Nc: 2, Predict: true}, tensor.NewRNG(29))
	if err != nil {
		t.Fatal(err)
	}
	pred.SetWeights(plain.Weights())

	want, err := plain.FpropReLU(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pred.FpropReLU(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Fatalf("prediction changed the output by %v", d)
	}
	if pred.Traffic.SkippedTiles == 0 {
		t.Fatal("prediction skipped nothing on a negative-biased workload")
	}
	if pred.Traffic.GatherBytes >= plain.Traffic.GatherBytes {
		t.Fatalf("prediction did not reduce gather bytes: %d vs %d",
			pred.Traffic.GatherBytes, plain.Traffic.GatherBytes)
	}
}

// TestTrafficMatchesCommModel: the engine's measured byte counters must
// match the closed-form model of internal/comm (which the paper's
// analysis and our simulator both rely on).
func TestTrafficMatchesCommModel(t *testing.T) {
	cfg := Config{Ng: 4, Nc: 4}
	e, err := NewEngine(winograd.F2x2_3x3, testP, cfg, tensor.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 8
	rng := tensor.NewRNG(37)
	x := tensor.New(batch, testP.In, testP.H, testP.W)
	dy := tensor.New(batch, testP.Out, testP.OutH(), testP.OutW())
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(dy, 0, 1)

	if _, err := e.Fprop(x); err != nil {
		t.Fatal(err)
	}
	// Scatter of X across the whole system: |Tiles_in|·(Ng−1)/Ng.
	inTiles := comm.TileBytes(winograd.F2x2_3x3, testP, batch, testP.In)
	wantScatter := inTiles * int64(cfg.Ng-1) / int64(cfg.Ng)
	if diff := relDiff(e.Traffic.ScatterBytes, wantScatter); diff > 0.01 {
		t.Fatalf("scatter bytes %d vs model %d", e.Traffic.ScatterBytes, wantScatter)
	}
	outTiles := comm.TileBytes(winograd.F2x2_3x3, testP, batch, testP.Out)
	wantGather := outTiles * int64(cfg.Ng-1) / int64(cfg.Ng)
	if diff := relDiff(e.Traffic.GatherBytes, wantGather); diff > 0.01 {
		t.Fatalf("gather bytes %d vs model %d", e.Traffic.GatherBytes, wantGather)
	}

	// Collective: system total = 2 × Ng·Nc × per-worker one-way volume.
	e.ResetTraffic()
	if _, err := e.Fprop(x); err != nil {
		t.Fatal(err)
	}
	e.ResetTraffic() // isolate the collective
	if _, err := e.UpdateGrad(dy); err != nil {
		t.Fatal(err)
	}
	perWorker := comm.RingCollectivePerWorker(
		comm.WinogradWeightBytes(winograd.F2x2_3x3, testP)/int64(cfg.Ng), cfg.Nc)
	want := 2 * perWorker * int64(cfg.Ng*cfg.Nc)
	if diff := relDiff(e.Traffic.CollectiveBytes, want); diff > 0.02 {
		t.Fatalf("collective bytes %d vs model %d", e.Traffic.CollectiveBytes, want)
	}
}

func relDiff(a, b int64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(float64(a-b)) / float64(b)
}

// TestZeroSkipReducesScatter: with sparse (ReLU-ed) inputs, zero-skipping
// must cut measured scatter bytes.
func TestZeroSkipReducesScatter(t *testing.T) {
	rng := tensor.NewRNG(41)
	x := tensor.New(4, testP.In, testP.H, testP.W)
	rng.FillNormal(x, -0.5, 1)
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0 // previous layer's ReLU
		}
	}
	plain, _ := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 4, Nc: 2}, tensor.NewRNG(43))
	skip, _ := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 4, Nc: 2, ZeroSkip: true}, tensor.NewRNG(43))
	if _, err := plain.Fprop(x); err != nil {
		t.Fatal(err)
	}
	if _, err := skip.Fprop(x); err != nil {
		t.Fatal(err)
	}
	if skip.Traffic.ScatterBytes >= plain.Traffic.ScatterBytes {
		t.Fatalf("zero-skip did not reduce scatter: %d vs %d",
			skip.Traffic.ScatterBytes, plain.Traffic.ScatterBytes)
	}
}

// nonZero, the zero-skip tally, counts exactly the values v != 0 counts:
// everything but ±0, NaN and subnormals included.
func TestNonZeroMatchesNotEqualZero(t *testing.T) {
	vs := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), -float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, math.MaxFloat32, 1, -1,
		math.Float32frombits(0x7fffffff), math.Float32frombits(0xffffffff), math.Float32frombits(0x80000001)}
	rng := tensor.NewRNG(5)
	for i := 0; i < 1000; i++ {
		vs = append(vs, math.Float32frombits(uint32(rng.Uint64())))
	}
	for n := range vs {
		var want int64
		for _, v := range vs[:n] {
			if v != 0 {
				want++
			}
		}
		if got := nonZero(vs[:n]); got != want {
			t.Fatalf("nonZero of the first %d values = %d, v != 0 counts %d", n, got, want)
		}
	}
}

func TestSingleGroupHasNoTileTraffic(t *testing.T) {
	e, _ := NewEngine(winograd.F4x4_3x3, testP, Config{Ng: 1, Nc: 4}, tensor.NewRNG(1))
	x := tensor.New(4, testP.In, testP.H, testP.W)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	if _, err := e.Fprop(x); err != nil {
		t.Fatal(err)
	}
	if e.Traffic.ScatterBytes != 0 || e.Traffic.GatherBytes != 0 {
		t.Fatalf("Ng=1 moved tile bytes: %+v", e.Traffic)
	}
}

func TestSingleClusterHasNoCollective(t *testing.T) {
	e, _ := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 4, Nc: 1}, tensor.NewRNG(1))
	rng := tensor.NewRNG(2)
	x := tensor.New(2, testP.In, testP.H, testP.W)
	dy := tensor.New(2, testP.Out, testP.OutH(), testP.OutW())
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(dy, 0, 1)
	if _, err := e.Fprop(x); err != nil {
		t.Fatal(err)
	}
	if _, err := e.UpdateGrad(dy); err != nil {
		t.Fatal(err)
	}
	if e.Traffic.CollectiveBytes != 0 {
		t.Fatalf("Nc=1 moved collective bytes: %d", e.Traffic.CollectiveBytes)
	}
}

// TestFpropReLU1DPredictionExact: with 4 groups over a 4x4 tile, each
// group holds whole lines and the engine switches to 1-D prediction; the
// post-ReLU output must still be bit-exact and the (tighter) 1-D predictor
// must skip at least as many tiles as 2-D would.
func TestFpropReLU1DPredictionExact(t *testing.T) {
	rng := tensor.NewRNG(51)
	x := tensor.New(8, testP.In, testP.H, testP.W)
	rng.FillNormal(x, -0.6, 1)

	mk := func(ng int) (*Engine, *Engine) {
		plain, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: ng, Nc: 2}, tensor.NewRNG(52))
		if err != nil {
			t.Fatal(err)
		}
		pred, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: ng, Nc: 2, Predict: true}, tensor.NewRNG(52))
		if err != nil {
			t.Fatal(err)
		}
		pred.SetWeights(plain.Weights())
		return plain, pred
	}

	// ng=4 → whole lines → 1-D predict path.
	plain4, pred4 := mk(4)
	want, err := plain4.FpropReLU(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pred4.FpropReLU(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Fatalf("1-D prediction changed output by %v", d)
	}
	if pred4.Traffic.SkippedTiles == 0 {
		t.Fatal("1-D prediction skipped nothing")
	}

	// ng=16 → single elements → 2-D predict path; same weights and data.
	_, pred16 := mk(16)
	if _, err := pred16.FpropReLU(x); err != nil {
		t.Fatal(err)
	}
	skip4 := float64(pred4.Traffic.SkippedTiles) / float64(pred4.Traffic.TotalTiles)
	skip16 := float64(pred16.Traffic.SkippedTiles) / float64(pred16.Traffic.TotalTiles)
	if skip4 < skip16 {
		t.Fatalf("1-D skip ratio %v below 2-D %v (1-D should be tighter)", skip4, skip16)
	}
}
