package mpt

import (
	"fmt"

	"mptwino/internal/conv"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// Net is a multi-layer CNN whose every convolution runs distributed on the
// MPT engine, with ReLU between layers (and a linear final layer). It
// demonstrates — and its tests prove — that a whole network trains under
// MPT exactly as it would on one worker, layer chaining, activation
// masking and per-layer collectives included.
type Net struct {
	Cfg     Config
	Engines []*Engine

	// Step state, sized by size for sizedBatch images and reused by every
	// step at that batch: each layer's output (ReLU'd for hidden layers),
	// the ReLU masks of the hidden layers, the loss gradient at each
	// layer's output, and each layer's weight gradient.
	sizedBatch int
	acts       []*tensor.Tensor
	masks      [][]bool
	grads      []*tensor.Tensor
	dws        []*winograd.Weights
	forwarded  bool // masks and engine caches hold the last Forward
}

// NewNet builds engines for each geometry in params; layer i's output
// channels must match layer i+1's input channels, and all spatial sizes
// must chain (same-padded layers keep H×W). Every layer shares one
// transform and one worker organization.
func NewNet(tr *winograd.Transform, params []conv.Params, cfg Config, rng *tensor.RNG) (*Net, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("mpt: empty network")
	}
	cfgs := make([]Config, len(params))
	for i := range cfgs {
		cfgs[i] = cfg
	}
	return buildNet(func(int) (*winograd.Transform, error) { return tr, nil }, params, cfgs, rng)
}

// NewNetConfigs builds a network whose layers run under per-layer worker
// organizations — the form an autoplan (internal/planner) produces. Layer
// i's transform is resolved from its kernel size, group count and tile
// choice via winograd.ForKernelTile (TileM = 0 keeps the historical
// winograd.ForKernel rule), so one net may mix single-group F(4×4,3×3)
// layers with multi-group F(2×2,·) ones, or run an explicit planner-chosen
// tile size.
func NewNetConfigs(params []conv.Params, cfgs []Config, rng *tensor.RNG) (*Net, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("mpt: empty network")
	}
	if len(cfgs) != len(params) {
		return nil, fmt.Errorf("mpt: %d configs for %d layers", len(cfgs), len(params))
	}
	return buildNet(func(i int) (*winograd.Transform, error) {
		return winograd.ForKernelTile(params[i].K, cfgs[i].Ng, cfgs[i].TileM)
	}, params, cfgs, rng)
}

func buildNet(trFor func(int) (*winograd.Transform, error), params []conv.Params, cfgs []Config, rng *tensor.RNG) (*Net, error) {
	n := &Net{Cfg: cfgs[0]}
	// The engines run one at a time, so they share one workspace.
	ws := &workspace{}
	for i, p := range params {
		if i > 0 {
			prev := params[i-1]
			if p.In != prev.Out || p.H != prev.OutH() || p.W != prev.OutW() {
				return nil, fmt.Errorf("mpt: layer %d input %dx%dx%d does not chain from layer %d output %dx%dx%d",
					i, p.In, p.H, p.W, i-1, prev.Out, prev.OutH(), prev.OutW())
			}
		}
		tr, err := trFor(i)
		if err != nil {
			return nil, err
		}
		e, err := NewEngine(tr, p, cfgs[i], rng)
		if err != nil {
			return nil, err
		}
		e.ws = ws
		n.Engines = append(n.Engines, e)
	}
	return n, nil
}

// size readies every layer and the step buffers for batch images; like
// Engine.size it allocates only when the batch, a grid or a speed
// profile changes.
func (n *Net) size(batch int) error {
	for _, e := range n.Engines {
		if err := e.size(batch); err != nil {
			return err
		}
	}
	if batch == n.sizedBatch {
		return nil
	}
	n.acts, n.grads, n.masks = n.acts[:0], n.grads[:0], n.masks[:0]
	for i, e := range n.Engines {
		p := e.P
		n.acts = append(n.acts, tensor.New(batch, p.Out, p.OutH(), p.OutW()))
		n.grads = append(n.grads, tensor.New(batch, p.Out, p.OutH(), p.OutW()))
		if i < len(n.Engines)-1 {
			n.masks = append(n.masks, make([]bool, len(n.acts[i].Data)))
		}
	}
	n.sizedBatch = batch
	n.forwarded = false
	return nil
}

// reserveUpdate readies the backward passes: the layers' gradient
// buffers, every engine's ring buffers, and the input-gradient staging of
// every layer but the first (which has no input gradient to pass on).
// Forward-only use skips it.
func (n *Net) reserveUpdate() {
	for i, e := range n.Engines {
		e.ws.reserveUpdate(e)
		if i > 0 {
			e.ws.reserveBprop(e)
		}
		if i == len(n.dws) {
			n.dws = append(n.dws, winograd.NewWeights(e.Tr, e.P.In, e.P.Out))
		}
	}
}

// warm reports whether a training step on x and target can run on the
// step state as it stands: x matches the network's input and target its
// output, and every layer's pass state and update buffers are sized for
// x's batch under the layer's current grid and speed profile.
func (n *Net) warm(x, target *tensor.Tensor) bool {
	if x.N != n.sizedBatch || len(n.dws) != len(n.Engines) || !n.Engines[0].fitsInput(x) ||
		!target.SameShape(n.acts[len(n.acts)-1]) {
		return false
	}
	for i, e := range n.Engines {
		if !e.sized(x.N) || !e.ws.updateFits(e) || i > 0 && !e.ws.bpropFits(e) {
			return false
		}
	}
	return true
}

// prepare validates a step's input (and target, for a training step)
// against the network and sizes the step state for the input's batch.
func (n *Net) prepare(x, target *tensor.Tensor) error {
	if err := n.Engines[0].checkInput(x); err != nil {
		return err
	}
	if err := n.size(x.N); err != nil {
		return err
	}
	if target == nil {
		return nil
	}
	if y := n.acts[len(n.acts)-1]; !y.SameShape(target) {
		return fmt.Errorf("mpt: target shape %s does not match output %s",
			target.ShapeString(), y.ShapeString())
	}
	n.reserveUpdate()
	return nil
}

// Forward runs the distributed forward pass: ReLU after every layer except
// the last.
func (n *Net) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if err := n.prepare(x, nil); err != nil {
		return nil, err
	}
	return n.forward(x).Clone(), nil
}

// forward runs the forward pass through the Net-owned activations and
// records the ReLU masks; it returns the last layer's output.
func (n *Net) forward(x *tensor.Tensor) *tensor.Tensor {
	for i, e := range n.Engines {
		y := n.acts[i]
		e.fpropInto(y, x, false)
		if i < len(n.masks) {
			mask := n.masks[i]
			for j, v := range y.Data {
				live := v > 0
				mask[j] = live
				if !live {
					y.Data[j] = 0
				}
			}
		}
		x = y
	}
	n.forwarded = true
	return x
}

// Backward runs the distributed backward pass from the loss gradient at
// the network output, applying each layer's collective-reduced update with
// learning rate lr. Forward must run first.
func (n *Net) Backward(dy *tensor.Tensor, lr float32) error {
	if !n.forwarded {
		return fmt.Errorf("mpt: Backward before Forward")
	}
	if y := n.acts[len(n.acts)-1]; !dy.SameShape(y) {
		return fmt.Errorf("mpt: output gradient %s does not match output %s", dy.ShapeString(), y.ShapeString())
	}
	n.reserveUpdate()
	n.backward(dy, lr)
	return nil
}

// backward runs the backward pass through the Net-owned gradients: one
// pass per layer computes its weight gradient and, above the first layer,
// its input gradient from one dY transform.
func (n *Net) backward(dy *tensor.Tensor, lr float32) {
	for i := len(n.Engines) - 1; i >= 0; i-- {
		e := n.Engines[i]
		if i == 0 {
			e.backwardInto(n.dws[i], nil, dy)
		} else {
			dx := n.grads[i-1]
			e.backwardInto(n.dws[i], dx, dy)
			for j, live := range n.masks[i-1] {
				if !live {
					dx.Data[j] = 0
				}
			}
			dy = dx
		}
		e.Step(lr, n.dws[i])
	}
	n.forwarded = false
}

// TrainStepMSE runs one SGD step against L = 0.5‖y − target‖², returning
// the pre-update loss. A warm step — same batch, grids and speed profile
// as the previous one — allocates nothing: activations, masks, gradients
// and every engine's pass state are reused (TestTrainStepAllocationFree).
//
//mptlint:noalloc
func (n *Net) TrainStepMSE(x, target *tensor.Tensor, lr float32) (float64, error) {
	if !n.warm(x, target) {
		if err := n.prepare(x, target); err != nil { //nolint:allocflow -- runs only off the warm path: sizes the step state for a new batch, grid or speed profile, or builds the error for a malformed input
			return 0, err
		}
	}
	y := n.forward(x)
	dy := n.grads[len(n.grads)-1]
	copy(dy.Data, y.Data)
	dy.AXPY(-1, target)
	var loss float64
	for _, v := range dy.Data {
		loss += 0.5 * float64(v) * float64(v)
	}
	n.backward(dy, lr)
	return loss, nil
}

// TotalTraffic sums the engines' traffic counters.
func (n *Net) TotalTraffic() Traffic {
	var t Traffic
	for _, e := range n.Engines {
		t.add(e.Traffic)
	}
	return t
}
