package mpt

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/telemetry"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

func TestShardBoundsEqualSplitUnchanged(t *testing.T) {
	e, err := NewEngine(winograd.F2x2_3x3, testP, Config{Ng: 4, Nc: 4}, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{4, 7, 16, 17, 33} {
		bounds, err := e.shardBounds(batch)
		if err != nil {
			t.Fatal(err)
		}
		for c, b := range bounds {
			want := [2]int{c * batch / 4, (c + 1) * batch / 4}
			if b != want {
				t.Fatalf("batch %d cluster %d: bounds %v, want %v", batch, c, b, want)
			}
		}
	}
}

func TestShardBoundsLoadAware(t *testing.T) {
	cfg := Config{Ng: 4, Nc: 4, Speeds: []float64{1, 0.5, 1, 1}}
	e, err := NewEngine(winograd.F2x2_3x3, testP, cfg, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 28
	bounds, err := e.shardBounds(batch)
	if err != nil {
		t.Fatal(err)
	}
	shares := comm.LoadAwareShards(batch, cfg.Speeds)
	lo := 0
	for c, b := range bounds {
		want := [2]int{lo, lo + shares[c]}
		if b != want {
			t.Fatalf("cluster %d: bounds %v, want %v", c, b, want)
		}
		lo += shares[c]
	}
	if lo != batch {
		t.Fatalf("bounds cover %d of %d images", lo, batch)
	}
	// 0.5/3.5 of 28 = 4 exactly: the straggler holds 4, the rest split 24.
	if got := shares[1]; got != 4 {
		t.Fatalf("straggler share = %d, want 4", got)
	}
}

func TestNewEngineRejectsSpeedLengthMismatch(t *testing.T) {
	cfg := Config{Ng: 4, Nc: 4, Speeds: []float64{1, 1}}
	if _, err := NewEngine(winograd.F2x2_3x3, testP, cfg, tensor.NewRNG(7)); err == nil {
		t.Fatal("2 speeds for Nc=4 accepted")
	}
}

// TestNonFiniteSpeedsRejected: a NaN or infinite cluster speed has no
// share to apportion, so NewEngine and Rebalance reject it, naming the
// cluster, and a rejected Rebalance leaves the network training exactly
// like a twin that never saw the call.
func TestNonFiniteSpeedsRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := Config{Ng: 4, Nc: 4, Speeds: []float64{1, 1, bad, 1}}
		if _, err := NewEngine(winograd.F2x2_3x3, testP, cfg, tensor.NewRNG(7)); err == nil ||
			!strings.Contains(err.Error(), "cluster 2") {
			t.Errorf("NewEngine with speed %v on cluster 2: error %v", bad, err)
		}

		nets := [2]*Net{recoveryNet(t, 4, 4, 45), recoveryNet(t, 4, 4, 45)}
		for _, n := range nets {
			if _, err := n.Rebalance(16, []float64{1, 0.5, 1, 1}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := nets[1].Rebalance(16, []float64{bad, 1, 1, 1}); err == nil ||
			!strings.Contains(err.Error(), "cluster 0") {
			t.Errorf("Rebalance with speed %v on cluster 0: error %v", bad, err)
		}
		if !reflect.DeepEqual(nets[1].Cfg.Speeds, []float64{1, 0.5, 1, 1}) {
			t.Errorf("rejected Rebalance left net speeds %v", nets[1].Cfg.Speeds)
		}
		twinSteps(t, nets, 16)
	}
}

// twinSteps trains both nets two steps on the same batch and fails unless
// their losses and weights agree bit for bit.
func twinSteps(t *testing.T, nets [2]*Net, batch int) {
	t.Helper()
	first, last := nets[0].Engines[0].P, nets[0].Engines[len(nets[0].Engines)-1].P
	x := tensor.New(batch, first.In, first.H, first.W)
	target := tensor.New(batch, last.Out, last.OutH(), last.OutW())
	rng := tensor.NewRNG(12)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(target, 0, 1)
	for s := 0; s < 2; s++ {
		var losses [2]float64
		for i, n := range nets {
			loss, err := n.TrainStepMSE(x, target, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			losses[i] = loss
		}
		if math.Float64bits(losses[0]) != math.Float64bits(losses[1]) {
			t.Fatalf("step %d: loss %v, twin %v", s, losses[1], losses[0])
		}
	}
	for l := range nets[0].Engines {
		if d := maxWeightsDiff(nets[0].Engines[l].W, nets[1].Engines[l].W); d != 0 {
			t.Errorf("layer %d weights differ from the twin's by %g", l, d)
		}
	}
}

// TestLoadAwareExactness: unequal sharding moves batch ownership, not
// values — the forward pass must match the single-worker reference.
func TestLoadAwareExactness(t *testing.T) {
	cfg := Config{Ng: 4, Nc: 4, Speeds: []float64{1, 0.25, 1, 0.7}}
	e, err := NewEngine(winograd.F2x2_3x3, testP, cfg, tensor.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	ref := refLayer(t, e)
	x := tensor.New(13, testP.In, testP.H, testP.W)
	tensor.NewRNG(11).FillNormal(x, 0, 1)
	want := ref.Fprop(x)
	got, err := e.Fprop(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d > 1e-5 {
		t.Fatalf("load-aware fprop diverges from reference by %v", d)
	}
}

// TestRebalanceMovedBytes checks the migration accounting: installing a
// straggler profile on a fresh equal-split net moves images whose byte
// bill matches the hand-computed overlap, and telemetry records it.
func TestRebalanceMovedBytes(t *testing.T) {
	n := recoveryNet(t, 4, 4, 41)
	reg := telemetry.NewRegistry()
	n.Instrument(reg, nil)

	const batch = 28
	speeds := []float64{1, 0.5, 1, 1}
	moved, err := n.Rebalance(batch, speeds)
	if err != nil {
		t.Fatal(err)
	}

	oldB, err := shardBoundsFor(batch, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	newB, err := shardBoundsFor(batch, 4, speeds)
	if err != nil {
		t.Fatal(err)
	}
	staying := 0
	for c := 0; c < 4; c++ {
		lo, hi := oldB[c][0], oldB[c][1]
		if newB[c][0] > lo {
			lo = newB[c][0]
		}
		if newB[c][1] < hi {
			hi = newB[c][1]
		}
		if hi > lo {
			staying += hi - lo
		}
	}
	var want int64
	for _, e := range n.Engines {
		want += int64(batch-staying) * 4 * int64(e.P.In) * int64(e.P.H) * int64(e.P.W)
	}
	if moved != want {
		t.Fatalf("moved bytes %d, want %d", moved, want)
	}
	if moved <= 0 {
		t.Fatal("straggler rebalance moved nothing")
	}
	if got := reg.Counter("mpt.rebalance_moved_bytes").Load(); got != moved {
		t.Fatalf("counter mpt.rebalance_moved_bytes = %d, want %d", got, moved)
	}
	if reg.Counter("mpt.rebalances").Load() != 1 {
		t.Fatal("mpt.rebalances not incremented")
	}
	if reg.Gauge("mpt.imbalance_permille").Load() <= 0 {
		t.Fatal("imbalance gauge not set by unequal rebalance")
	}

	// Rebalancing to the same speeds again moves nothing.
	again, err := n.Rebalance(batch, speeds)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("idempotent rebalance moved %d bytes", again)
	}

	// Engines now shard load-aware.
	bounds, err := n.Engines[0].shardBounds(batch)
	if err != nil {
		t.Fatal(err)
	}
	wantBounds, _ := shardBoundsFor(batch, 4, speeds)
	if !reflect.DeepEqual(bounds, wantBounds) {
		t.Fatalf("engine bounds %v, want %v", bounds, wantBounds)
	}
}

func TestRebalanceValidation(t *testing.T) {
	n := recoveryNet(t, 4, 4, 43)
	if _, err := n.Rebalance(16, []float64{1, 1}); err == nil {
		t.Fatal("2 speeds for Nc=4 accepted")
	}
	if _, err := n.Rebalance(2, []float64{1, 1, 1, 1}); err == nil {
		t.Fatal("batch 2 < Nc=4 accepted")
	}
}

// TestReconfigureDropsStaleSpeeds: shrinking the grid invalidates a speed
// profile sized for the old cluster count.
func TestReconfigureDropsStaleSpeeds(t *testing.T) {
	n := recoveryNet(t, 4, 4, 47)
	if _, err := n.Rebalance(16, []float64{1, 0.5, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Reconfigure(4, 3); err != nil {
		t.Fatal(err)
	}
	if n.Cfg.Speeds != nil {
		t.Fatal("net kept a 4-cluster speed profile on a 3-cluster grid")
	}
	for i, e := range n.Engines {
		if e.Cfg.Speeds != nil {
			t.Fatalf("engine %d kept stale speeds", i)
		}
	}
}

// TestDegradedRecoveryLossTrajectory is the heterogeneous-fleet recovery
// equivalence proof: train on a straggler fleet with load-aware sharding,
// checkpoint, lose a module, re-solve the survivor grid, rebalance onto
// the survivor speeds, restore — and the post-recovery loss trajectory
// must be bit-exact against a fault-free network wired with the same grid
// and speeds from the start, loaded from the same checkpoint.
func TestDegradedRecoveryLossTrajectory(t *testing.T) {
	const (
		batch = 24
		lr    = 1e-4
		steps = 3
	)
	rng := tensor.NewRNG(53)
	x := tensor.New(batch, 3, 8, 8)
	rng.FillNormal(x, 0, 1)
	target := tensor.New(batch, 2, 8, 8)
	rng.FillNormal(target, 0, 1)

	// Heterogeneous training at (4,4): cluster 1 runs at half speed, so
	// the batch shards load-aware from the start.
	params := []conv.Params{
		{In: 3, Out: 4, K: 3, Pad: 1, H: 8, W: 8},
		{In: 4, Out: 2, K: 3, Pad: 1, H: 8, W: 8},
	}
	cfg := Config{Ng: 4, Nc: 4, Speeds: []float64{1, 0.5, 1, 1}}
	n, err := NewNet(winograd.F2x2_3x3, params, cfg, tensor.NewRNG(59))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if _, err := n.TrainStepMSE(x, target, lr); err != nil {
			t.Fatal(err)
		}
	}
	cp := n.Checkpoint()

	// A module dies: 16 → 15 workers, survivor grid (4,3). The straggler
	// survives, so the 3 remaining clusters run at {1, 0.5, 1}.
	survivorSpeeds := []float64{1, 0.5, 1}
	if err := n.Reconfigure(4, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Rebalance(batch, survivorSpeeds); err != nil {
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

	// Fault-free reference: wired at (4,3) with the survivor speeds from
	// the start, loaded from the same checkpoint. Bit-exact agreement.
	refCfg := Config{Ng: 4, Nc: 3, Speeds: survivorSpeeds}
	ref, err := NewNet(winograd.F2x2_3x3, params, refCfg, tensor.NewRNG(999))
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("loss not decreasing after rebalanced recovery: %v", recovered)
	}
}
