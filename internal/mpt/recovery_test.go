package mpt

import (
	"math"
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/parallel"
	"mptwino/internal/telemetry"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// recoveryNet builds a two-layer test network at the given grid.
func recoveryNet(t *testing.T, ng, nc int, seed uint64) *Net {
	t.Helper()
	params := []conv.Params{
		{In: 3, Out: 4, K: 3, Pad: 1, H: 8, W: 8},
		{In: 4, Out: 2, K: 3, Pad: 1, H: 8, W: 8},
	}
	n, err := NewNet(winograd.F2x2_3x3, params, Config{Ng: ng, Nc: nc}, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	e, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 4, Nc: 2}, tensor.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	cp := e.Checkpoint()

	// Perturb the weights, then restore.
	dw := e.Weights().Clone()
	e.Step(0.5, dw)
	if diff := maxWeightsDiff(e.Weights(), cp); diff == 0 {
		t.Fatal("Step did not change weights; perturbation is vacuous")
	}
	e.Restore(cp)
	if diff := maxWeightsDiff(e.Weights(), cp); diff != 0 {
		t.Fatalf("restored weights differ from checkpoint by %v", diff)
	}

	// The checkpoint must be insulated from later training.
	before := cp.Clone()
	e.Step(0.25, e.Weights().Clone())
	if diff := maxWeightsDiff(cp, before); diff != 0 {
		t.Fatalf("training mutated the checkpoint by %v", diff)
	}

	// Restore invalidates the forward cache: UpdateGrad must refuse.
	x := tensor.New(4, testP.In, testP.H, testP.W)
	tensor.NewRNG(13).FillNormal(x, 0, 1)
	if _, err := e.Fprop(x); err != nil {
		t.Fatal(err)
	}
	e.Restore(cp)
	dy := tensor.New(4, testP.Out, testP.OutH(), testP.OutW())
	if _, err := e.UpdateGrad(dy); err == nil {
		t.Fatal("UpdateGrad after Restore used a stale forward cache")
	}
}

func TestReconfigureValidation(t *testing.T) {
	e, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 4, Nc: 4}, tensor.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reconfigure(0, 4); err == nil {
		t.Fatal("Ng=0 accepted")
	}
	if err := e.Reconfigure(17, 1); err == nil {
		t.Fatal("Ng > T^2 accepted")
	}
	if err := e.Reconfigure(4, 0); err == nil {
		t.Fatal("Nc=0 accepted")
	}
	if e.Cfg.Ng != 4 || e.Cfg.Nc != 4 {
		t.Fatalf("failed Reconfigure mutated config to (%d,%d)", e.Cfg.Ng, e.Cfg.Nc)
	}
}

// TestNetReconfigureMixedTransformsUnchangedOnError: on a net whose layers
// run different transforms, a group count one layer can hold and another
// cannot is rejected before any layer changes — the F(4×4) layer keeps
// its grid, groups and forward cache — and the net then trains exactly
// like a twin that never saw the call.
func TestNetReconfigureMixedTransformsUnchangedOnError(t *testing.T) {
	params := []conv.Params{
		{In: 3, Out: 4, K: 3, Pad: 1, H: 8, W: 8},
		{In: 4, Out: 2, K: 3, Pad: 1, H: 8, W: 8},
	}
	cfgs := []Config{{Ng: 4, Nc: 2, TileM: 4}, {Ng: 4, Nc: 2, TileM: 2}} // T = 6 and T = 4
	var nets [2]*Net
	for i := range nets {
		n, err := NewNetConfigs(params, cfgs, tensor.NewRNG(71))
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = n
	}
	twinSteps(t, nets, 4)
	if err := nets[1].Reconfigure(32, 2); err == nil {
		t.Fatal("32 groups accepted on a layer of 16 tile elements")
	}
	if nets[1].Cfg.Ng != 4 || nets[1].Cfg.Nc != 2 {
		t.Errorf("net config (%d,%d) after the rejected call, want (4,2)", nets[1].Cfg.Ng, nets[1].Cfg.Nc)
	}
	for i, e := range nets[1].Engines {
		if e.Cfg.Ng != 4 || e.Cfg.Nc != 2 || len(e.groupEls) != 4 || e.fwdBatch == 0 {
			t.Errorf("layer %d: Ng=%d Nc=%d, %d groups, cached batch %d after the rejected call",
				i, e.Cfg.Ng, e.Cfg.Nc, len(e.groupEls), e.fwdBatch)
		}
	}
	twinSteps(t, nets, 4)
}

// TestReconfigureExactness: a reconfigured engine computes the same forward
// pass as the single-worker reference — re-sharding moves ownership, not
// values.
func TestReconfigureExactness(t *testing.T) {
	e, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 16, Nc: 4}, tensor.NewRNG(19))
	if err != nil {
		t.Fatal(err)
	}
	ref := refLayer(t, e)
	x := tensor.New(8, testP.In, testP.H, testP.W)
	tensor.NewRNG(23).FillNormal(x, 0, 1)
	want := ref.Fprop(x)
	for _, grid := range [][2]int{{4, 3}, {1, 8}, {8, 2}} {
		if err := e.Reconfigure(grid[0], grid[1]); err != nil {
			t.Fatal(err)
		}
		got, err := e.Fprop(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-5 {
			t.Fatalf("grid %v: fprop diverges %v after reconfigure", grid, d)
		}
	}
}

// TestFailureRecoveryLossTrajectory is the end-to-end recovery equivalence
// proof: train at (4,4), checkpoint, lose a module (16 → 15 workers),
// re-solve the grid over the survivor menu, restore, and keep training.
// The post-failure loss trajectory must be numerically identical to a
// fault-free network that trained at the surviving configuration from the
// same checkpoint.
func TestFailureRecoveryLossTrajectory(t *testing.T) {
	const (
		batch = 16
		lr    = 1e-4
		steps = 3
	)
	rng := tensor.NewRNG(29)
	x := tensor.New(batch, 3, 8, 8)
	rng.FillNormal(x, 0, 1)
	target := tensor.New(batch, 2, 8, 8)
	rng.FillNormal(target, 0, 1)

	// Healthy training at (4,4) = 16 workers.
	n := recoveryNet(t, 4, 4, 31)
	for i := 0; i < steps; i++ {
		if _, err := n.TrainStepMSE(x, target, lr); err != nil {
			t.Fatal(err)
		}
	}
	cp := n.Checkpoint()

	// One module fails: 15 survivors. The survivor menu offers (4,3) and
	// (1,15); take its leading (largest-Ng) entry.
	menu := comm.SurvivorConfigs(15)
	if len(menu) == 0 {
		t.Fatal("empty survivor menu for 15 workers")
	}
	grid := menu[0]
	if grid.Ng != 4 || grid.Nc != 3 {
		t.Fatalf("survivor menu for 15 leads with (%d,%d), want (4,3)", grid.Ng, grid.Nc)
	}
	if err := n.Reconfigure(grid.Ng, grid.Nc); err != nil {
		t.Fatal(err)
	}
	if err := n.Restore(cp); err != nil {
		t.Fatal(err)
	}
	recovered := make([]float64, steps)
	for i := range recovered {
		loss, err := n.TrainStepMSE(x, target, lr)
		if err != nil {
			t.Fatal(err)
		}
		recovered[i] = loss
	}

	// Fault-free reference: a fresh network wired at (4,3) from the start,
	// loaded from the same checkpoint.
	ref := recoveryNet(t, grid.Ng, grid.Nc, 999) // init weights are overwritten by Restore
	if err := ref.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		loss, err := ref.TrainStepMSE(x, target, lr)
		if err != nil {
			t.Fatal(err)
		}
		if loss != recovered[i] {
			t.Fatalf("step %d: recovered loss %v != fault-free loss %v", i, recovered[i], loss)
		}
	}
	if recovered[steps-1] >= recovered[0] {
		t.Fatalf("loss not decreasing after recovery: %v", recovered)
	}
}

// TestRecoveryCycleDeterministicAcrossWorkers trains a network with
// prediction and zero-skip on through a checkpoint/reconfigure/restore
// cycle at worker counts {1, 2, 8}: every loss, every layer's final
// weights, the traffic totals and the GEMM FLOP counter agree bit for bit.
func TestRecoveryCycleDeterministicAcrossWorkers(t *testing.T) {
	type result struct {
		losses  []float64
		weights []*winograd.Weights
		traffic Traffic
		flops   int64
	}
	run := func(workers int) result {
		t.Helper()
		prev := parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(prev)
		// parallel.Attach is deliberately absent: the engine-usage counters
		// measure actual fan-out entries, and the winograd Into kernels
		// bypass the engine on the closure-free one-slot path (scratch.go),
		// so those counts vary with the worker count by design.
		reg := telemetry.NewRegistry()
		tensor.Attach(reg)
		defer tensor.Attach(nil)

		rng := tensor.NewRNG(7)
		net, err := NewNet(winograd.F2x2_3x3, chainParams(),
			Config{Ng: 4, Nc: 2, Predict: true, ZeroSkip: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(4, 2, 8, 8)
		rng.FillNormal(x, 0, 1)
		target := tensor.New(4, 2, 8, 8)
		rng.FillNormal(target, 0, 1)

		var r result
		step := func() {
			loss, err := net.TrainStepMSE(x, target, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			r.losses = append(r.losses, loss)
		}
		step()
		step()
		cp := net.Checkpoint()
		if err := net.Reconfigure(2, 4); err != nil {
			t.Fatal(err)
		}
		step()
		if err := net.Restore(cp); err != nil {
			t.Fatal(err)
		}
		step()
		for _, e := range net.Engines {
			r.weights = append(r.weights, e.W)
		}
		r.traffic = net.TotalTraffic()
		r.flops = reg.Counter("tensor.gemm_flops").Load()
		return r
	}

	ref := run(1)
	if ref.traffic.CollectiveBytes == 0 {
		t.Error("CollectiveBytes = 0, want ring all-reduce traffic")
	}
	if raw, c := ref.traffic.ScatterRawBytes, ref.traffic.ScatterBytes; raw < c || raw == 0 {
		t.Errorf("zero-skip compression inverted: ScatterRawBytes %d < ScatterBytes %d", raw, c)
	}
	if ref.flops == 0 {
		t.Error("tensor.gemm_flops = 0, want counted element GEMMs")
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i, loss := range got.losses {
			if math.Float64bits(loss) != math.Float64bits(ref.losses[i]) {
				t.Errorf("workers=%d: step %d loss %v, workers=1 %v", workers, i, loss, ref.losses[i])
			}
		}
		for l, w := range got.weights {
			for el := range w.El {
				if i, ok := sameBits(w.El[el].Data, ref.weights[l].El[el].Data); !ok {
					t.Errorf("workers=%d: layer %d element %d weights differ from workers=1 at %d", workers, l, el, i)
				}
			}
		}
		if got.traffic != ref.traffic {
			t.Errorf("workers=%d: traffic %+v, workers=1 %+v", workers, got.traffic, ref.traffic)
		}
		if got.flops != ref.flops {
			t.Errorf("workers=%d: tensor.gemm_flops %d, workers=1 %d", workers, got.flops, ref.flops)
		}
	}
}

func TestNetRestoreShapeMismatch(t *testing.T) {
	n := recoveryNet(t, 4, 4, 37)
	cp := n.Checkpoint()
	cp.weights = cp.weights[:1]
	if err := n.Restore(cp); err == nil {
		t.Fatal("short checkpoint accepted")
	}
}

// maxWeightsDiff returns the max abs elementwise difference of two weight
// sets.
func maxWeightsDiff(a, b *winograd.Weights) float64 {
	var worst float64
	for el := range a.El {
		for i, v := range a.El[el].Data {
			d := float64(v - b.El[el].Data[i])
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
