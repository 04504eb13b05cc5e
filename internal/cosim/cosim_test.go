package cosim

import (
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/ndp"
	"mptwino/internal/noc"
	"mptwino/internal/sim"
	"mptwino/internal/winograd"
)

// smallSpec is a 16-worker (4,4) MPT layer small enough for flit-level
// co-simulation. TileM 2 keeps F(2×2,3×3) at every Ng, Ng = 1 included.
func smallSpec() Spec {
	return Spec{
		St:    comm.Strategy{Ng: 4, Nc: 4, Winograd: true, TileM: 2},
		P:     conv.Params{In: 32, Out: 32, K: 3, Pad: 1, H: 8, W: 8},
		Batch: 16,
		NDP:   ndp.DefaultConfig(),
		Net:   noc.DefaultConfig(),
	}
}

func TestCosimValidation(t *testing.T) {
	for name, edit := range map[string]func(*Spec){
		"Ng=0":            func(s *Spec) { s.St.Ng = 0 },
		"Ng > T^2":        func(s *Spec) { s.St.Ng = 17 },
		"Nf=2":            func(s *Spec) { s.St.Nf = 2 },
		"Ni=2":            func(s *Spec) { s.St.Ni = 2 },
		"direct":          func(s *Spec) { s.St.Winograd, s.St.TileM = false, 0 },
		"gather cut":      func(s *Spec) { s.St.GatherReduction = 0.5 },
		"scatter cut":     func(s *Spec) { s.St.ScatterReduction = 0.5 },
		"5x5 at TileM 4":  func(s *Spec) { s.St.TileM, s.P.K, s.P.Pad = 4, 5, 2 },
		"kernel in Extra": func(s *Spec) { s.Extra = []conv.Params{{In: 32, Out: 32, K: 5, Pad: 2, H: 8, W: 8}} },
	} {
		s := smallSpec()
		edit(&s)
		if _, err := New(s); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The first layer's transform follows its kernel: a 5×5 layer runs
	// F(2×2,5×5).
	s := smallSpec()
	s.P.K, s.P.Pad = 5, 2
	if c, err := New(s); err != nil || c.tr != winograd.F2x2_5x5 {
		t.Errorf("5x5 layer: %v", err)
	}
}

func TestCosimCompletes(t *testing.T) {
	c, err := New(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.Seconds <= 0 {
		t.Fatalf("empty result %+v", r)
	}
	if r.ForwardCycles <= 0 || r.ForwardCycles >= r.Cycles {
		t.Fatalf("forward marker %d outside (0, %d)", r.ForwardCycles, r.Cycles)
	}
	// Both fabrics must have carried traffic: narrow (tile transfer) and
	// full (collective ring).
	if r.NetBytes[1] == 0 { // Narrow
		t.Fatal("no tile-transfer traffic on narrow links")
	}
	if r.NetBytes[0] == 0 { // Full
		t.Fatal("no collective traffic on full links")
	}
}

func TestCosimDeterminism(t *testing.T) {
	run := func() int64 {
		c, err := New(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run(50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if run() != run() {
		t.Fatal("co-simulation not deterministic")
	}
}

// TestCosimSingleGroupHasNoTileTraffic: at Ng=1 the pipeline has no
// scatter/gather, only the collective.
func TestCosimSingleGroup(t *testing.T) {
	s := smallSpec()
	s.St.Ng, s.St.Nc = 1, 4
	c, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.NetBytes[1] != 0 {
		t.Fatalf("Ng=1 used narrow links: %v", r.NetBytes)
	}
	if r.NetBytes[0] == 0 {
		t.Fatal("no collective traffic")
	}
}

// TestCosimSingleClusterHasNoCollective: at Nc=1 there is no ring.
func TestCosimSingleCluster(t *testing.T) {
	s := smallSpec()
	s.St.Ng, s.St.Nc = 4, 1
	c, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.NetBytes[0] != 0 {
		t.Fatalf("Nc=1 used full links: %v", r.NetBytes)
	}
	if r.NetBytes[1] == 0 {
		t.Fatal("no tile traffic")
	}
}

// TestCosimTrafficMatchesCommModel: the flit-level byte counts must match
// the closed-form §III-C volumes (tile traffic crosses ~1.6 hops mean on
// the 4-group fully connected cluster = exactly 1 hop; collective bytes
// circle the ring 2(Nc−1) times).
func TestCosimTrafficMatchesCommModel(t *testing.T) {
	s := smallSpec()
	c, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tr := winograd.F2x2_3x3
	inTiles := comm.TileBytes(tr, s.P, s.Batch, s.P.In)
	outTiles := comm.TileBytes(tr, s.P, s.Batch, s.P.Out)
	// fprop: X scattered + Y gathered; bprop: dY scattered. K4 clusters →
	// exactly 1 hop per byte.
	frac := float64(s.St.Ng-1) / float64(s.St.Ng)
	wantNarrow := float64(inTiles)*frac + 2*float64(outTiles)*frac
	gotNarrow := float64(r.NetBytes[1])
	if rel := abs(gotNarrow-wantNarrow) / wantNarrow; rel > 0.05 {
		t.Fatalf("narrow bytes %v vs model %v (rel %v)", gotNarrow, wantNarrow, rel)
	}
	// Collective: p workers each launch one chunk of shard/Nc bytes that
	// travels 2(Nc−1) hops.
	shard := comm.WinogradWeightBytes(tr, s.P) / int64(s.St.Ng)
	wantFull := float64(s.St.Workers()) * float64(shard/int64(s.St.Nc)) * float64(2*(s.St.Nc-1))
	gotFull := float64(r.NetBytes[0])
	if rel := abs(gotFull-wantFull) / wantFull; rel > 0.05 {
		t.Fatalf("full bytes %v vs model %v (rel %v)", gotFull, wantFull, rel)
	}
}

// TestCosimCrossValidatesPhaseModel: the same layer shape through the
// event-driven phase model (internal/sim) must land within a small factor
// of the co-simulated cycle count — the check that justifies using the
// phase model at p=256.
func TestCosimCrossValidatesPhaseModel(t *testing.T) {
	spec := smallSpec()
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}

	sys := sim.DefaultSystem()
	sys.Workers = spec.St.Workers()
	l := model.Layer{Name: "cosim", P: spec.P}
	// Fixed (4,4) via the w_mp path at 16 workers (largest Ng dividing 16
	// is 16; force the comparison through a custom strategy by using the
	// fixed config — the sim picks Ng=16 at p=16, so compare against the
	// dynamic config which may pick (4,4) or (1,16); accept a loose band).
	pr := sys.SimulateLayer(l, spec.Batch, sim.WMp)
	ratio := r.Seconds / pr.TotalSec()
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("cosim %.3gs vs phase model %.3gs: ratio %.2f outside [0.2, 5]",
			r.Seconds, pr.TotalSec(), ratio)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestCosimMultiLayer chains three layers and checks completion, ordering
// via the forward marker, and that the makespan exceeds the single-layer
// run (more work, same machine).
func TestCosimMultiLayer(t *testing.T) {
	single := smallSpec()
	c1, err := New(single)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}

	multi := smallSpec()
	multi.Extra = []conv.Params{
		{In: 32, Out: 32, K: 3, Pad: 1, H: 8, W: 8},
		{In: 32, Out: 64, K: 3, Pad: 1, H: 8, W: 8},
	}
	c3, err := New(multi)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := c3.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cycles <= r1.Cycles {
		t.Fatalf("3-layer run (%d) not longer than 1-layer (%d)", r3.Cycles, r1.Cycles)
	}
	if r3.ForwardCycles <= r1.ForwardCycles {
		t.Fatalf("3-layer forward (%d) not longer than 1-layer (%d)", r3.ForwardCycles, r1.ForwardCycles)
	}
	// Per-layer collectives: full-link traffic must scale with the summed
	// weight shards of all three layers.
	if r3.NetBytes[0] <= r1.NetBytes[0] {
		t.Fatal("multi-layer collective traffic not larger")
	}
}

// TestCosimMultiLayerValidation: a bad layer anywhere in the chain is
// rejected.
func TestCosimMultiLayerValidation(t *testing.T) {
	s := smallSpec()
	s.Extra = []conv.Params{{In: 32, Out: 32, K: 5, Pad: 2, H: 8, W: 8}}
	if _, err := New(s); err == nil {
		t.Fatal("mismatched kernel in Extra accepted")
	}
}
