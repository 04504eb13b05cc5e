package mpt

import (
	"math"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// TestEngineEntryPointsRejectMalformedInput: every engine entry point and
// Net.TrainStepMSE validates its tensors up front and returns an error —
// no panic deep inside a transform or GEMM — and the engine keeps working
// afterwards.
func TestEngineEntryPointsRejectMalformedInput(t *testing.T) {
	p := conv.Params{In: 3, Out: 4, K: 3, Pad: 1, H: 8, W: 8}
	x := tensor.New(4, p.In, p.H, p.W)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	dy := tensor.New(4, p.Out, p.OutH(), p.OutW())
	forwarded := func(e *Engine) {
		if _, err := e.Fprop(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		call func(e *Engine) error
	}{
		{"Fprop/channels", func(e *Engine) error { _, err := e.Fprop(tensor.New(4, 2, 8, 8)); return err }},
		{"Fprop/spatial", func(e *Engine) error { _, err := e.Fprop(tensor.New(4, 3, 7, 8)); return err }},
		{"FpropReLU/channels", func(e *Engine) error { _, err := e.FpropReLU(tensor.New(4, 5, 8, 8)); return err }},
		{"FpropReLU/spatial", func(e *Engine) error { _, err := e.FpropReLU(tensor.New(4, 3, 8, 9)); return err }},
		{"Bprop/channels", func(e *Engine) error { _, err := e.Bprop(tensor.New(4, 3, 8, 8)); return err }},
		{"Bprop/spatial", func(e *Engine) error { _, err := e.Bprop(tensor.New(4, 4, 6, 8)); return err }},
		{"UpdateGrad/channels", func(e *Engine) error {
			forwarded(e)
			_, err := e.UpdateGrad(tensor.New(4, 5, 8, 8))
			return err
		}},
		{"UpdateGrad/spatial", func(e *Engine) error {
			forwarded(e)
			_, err := e.UpdateGrad(tensor.New(4, 4, 8, 7))
			return err
		}},
		{"UpdateGrad/batch", func(e *Engine) error {
			forwarded(e)
			_, err := e.UpdateGrad(tensor.New(6, 4, 8, 8))
			return err
		}},
	} {
		e, err := NewEngine(winograd.F2x2_3x3, p, Config{Ng: 4, Nc: 2, Predict: true}, tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", tc.name, r)
				}
			}()
			if err := tc.call(e); err == nil {
				t.Errorf("%s: malformed input accepted", tc.name)
			}
		}()
		// The rejected call leaves the engine usable.
		forwarded(e)
		if _, err := e.UpdateGrad(dy); err != nil {
			t.Errorf("%s: UpdateGrad after the rejected call: %v", tc.name, err)
		}
	}

	n, err := NewNet(winograd.F2x2_3x3, chainParams(), Config{Ng: 4, Nc: 2}, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	first, last := chainParams()[0], chainParams()[len(chainParams())-1]
	target := tensor.New(4, last.Out, last.OutH(), last.OutW())
	for _, bad := range []*tensor.Tensor{
		tensor.New(4, first.In+1, first.H, first.W),
		tensor.New(4, first.In, first.H+1, first.W),
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("TrainStepMSE(%s): panicked: %v", bad.ShapeString(), r)
				}
			}()
			if _, err := n.TrainStepMSE(bad, target, 0.01); err == nil {
				t.Errorf("TrainStepMSE(%s): malformed input accepted", bad.ShapeString())
			}
		}()
	}
	good := tensor.New(4, first.In, first.H, first.W)
	if _, err := n.TrainStepMSE(good, target, 0.01); err != nil {
		t.Fatalf("TrainStepMSE after rejected steps: %v", err)
	}
}

// TestTrainStepAllocationFree pins the whole-step zero-alloc contract: a
// warm TrainStepMSE — same batch and grids as the previous step — performs
// no allocation on the sequential path, on the planned AlexNet-body grids
// and on one cluster.
func TestTrainStepAllocationFree(t *testing.T) {
	defer parallel.SetDefaultWorkers(parallel.SetDefaultWorkers(1))
	params := alexBody()
	first, last := params[0], params[len(params)-1]
	x := tensor.New(digestBatch, first.In, first.H, first.W)
	target := tensor.New(digestBatch, last.Out, last.OutH(), last.OutW())
	rng := tensor.NewRNG(6)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(target, 0, 1)
	for _, tc := range []struct {
		name string
		cfgs []Config
	}{
		{"planned", alexGrids(Config{}, 8)},
		{"nc1", alexGrids(Config{}, 1)},
	} {
		n, err := NewNetConfigs(params, tc.cfgs, tensor.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if _, err := n.TrainStepMSE(x, target, digestLR); err != nil {
				t.Fatal(err)
			}
		}
		step()
		step()
		if allocs := testing.AllocsPerRun(3, step); allocs != 0 {
			t.Errorf("%s: warm TrainStepMSE allocates %v objects, want 0", tc.name, allocs)
		}
	}
}

// TestTrainStepResizesAfterForwardOnNewGrid: a Forward on a new grid sizes
// the passes but not the update buffers, so the next training step must
// not take the warm path; it trains exactly like a twin that skipped the
// Forward. A malformed step after warm ones is still rejected.
func TestTrainStepResizesAfterForwardOnNewGrid(t *testing.T) {
	params := chainParams()
	first, last := params[0], params[len(params)-1]
	x := tensor.New(4, first.In, first.H, first.W)
	target := tensor.New(4, last.Out, last.OutH(), last.OutW())
	rng := tensor.NewRNG(8)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(target, 0, 1)
	var losses [2]float64
	var nets [2]*Net
	for i := range nets {
		n, err := NewNet(winograd.F2x2_3x3, params, Config{Ng: 4, Nc: 1}, tensor.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			if _, err := n.TrainStepMSE(x, target, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Reconfigure(4, 4); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := n.Forward(x); err != nil {
				t.Fatal(err)
			}
		}
		if losses[i], err = n.TrainStepMSE(x, target, 0.01); err != nil {
			t.Fatal(err)
		}
		nets[i] = n
	}
	if math.Float64bits(losses[0]) != math.Float64bits(losses[1]) {
		t.Errorf("loss after Forward on the new grid %v, without %v", losses[1], losses[0])
	}
	for l := range params {
		if d := maxWeightsDiff(nets[0].Engines[l].W, nets[1].Engines[l].W); d != 0 {
			t.Errorf("layer %d weights differ by %g after Forward on the new grid", l, d)
		}
	}

	n := nets[1]
	for _, bad := range [][2]*tensor.Tensor{
		{tensor.New(4, first.In+1, first.H, first.W), target},
		{x, tensor.New(4, last.Out+1, last.OutH(), last.OutW())},
		{x, tensor.New(2, last.Out, last.OutH(), last.OutW())},
	} {
		if _, err := n.TrainStepMSE(bad[0], bad[1], 0.01); err == nil {
			t.Errorf("TrainStepMSE(%s, %s) after warm steps: malformed step accepted",
				bad[0].ShapeString(), bad[1].ShapeString())
		}
	}
}
