package winograd

import (
	"mptwino/internal/conv"
	"mptwino/internal/tensor"
)

// Fprop computes the convolution forward pass through the Winograd domain
// with spatial weights w (Fig. 2(a)): transform, T² element matmuls,
// inverse transform. It is numerically equivalent to conv.Fprop (verified
// in tests) at ~(T/ m·K)² fewer multiplications in the dot-product stage.
func Fprop(tr *Transform, p conv.Params, x, w *tensor.Tensor) *tensor.Tensor {
	tl, err := NewTiling(tr, p)
	if err != nil {
		panic(err)
	}
	xd := tl.TransformInput(x)
	wd := TransformWeights(tr, w)
	yd := MulForward(xd, wd, nil)
	return tl.InverseOutput(yd)
}

// Bprop computes dx through the Winograd domain with spatial weights.
func Bprop(tr *Transform, p conv.Params, dy, w *tensor.Tensor) *tensor.Tensor {
	tl, err := NewTiling(tr, p)
	if err != nil {
		panic(err)
	}
	dyd := tl.TransformOutputGrad(dy)
	wd := TransformWeights(tr, w)
	dxd := MulBackward(dyd, wd, nil)
	return tl.InverseInputGrad(dxd)
}

// UpdateGrad computes the spatial weight gradient dw through the Winograd
// domain: dW = Xᵀ·dY per element, then dw = Gᵀ·dW·G.
func UpdateGrad(tr *Transform, p conv.Params, x, dy *tensor.Tensor) *tensor.Tensor {
	tl, err := NewTiling(tr, p)
	if err != nil {
		panic(err)
	}
	xd := tl.TransformInput(x)
	dyd := tl.TransformOutputGrad(dy)
	dwd := MulGrad(xd, dyd, nil)
	return dwd.ToSpatialGrad()
}

// Layer is the paper's Winograd layer (Fig. 2(b), [29]): the trained
// parameters are the Winograd-domain weights W themselves, updated directly
// in the Winograd domain. This removes the per-iteration weight transform
// and is the form MPT partitions across groups.
type Layer struct {
	Tiling *Tiling
	W      *Weights

	// cached forward-pass Winograd-domain input, needed by UpdateGradW;
	// mirrors the NDP design where X tiles stay resident in local DRAM.
	lastX *Domain

	// Steady-state scratch, reused across iterations so
	// fprop/bprop/updateGrad run without allocation after the first step.
	// The per-worker tile/packing buffers (sc) are built eagerly at
	// construction — the worker count is known then, and building them in
	// the hot path would put an allocation on every //mptlint:noalloc
	// root's first-call path (allocflow flags exactly that). The intermediate
	// Domains of the training loop stay lazy: their shapes depend on the
	// batch size of the first call (resized if it changes).
	sc  *Scratch
	xd  *Domain // input transform destination (aliased by lastX)
	yd  *Domain // forward Winograd-domain output
	dyd *Domain // output-gradient transform destination
	dxd *Domain // backward Winograd-domain input gradient
}

func (l *Layer) scratch() *Scratch {
	if l.sc == nil {
		panic("winograd: Layer built without NewLayer/NewLayerWithWeights")
	}
	return l.sc
}

// ensureDomain returns *slot if it already has shape (b, c), otherwise
// replaces it with a fresh Domain of that shape.
func (l *Layer) ensureDomain(slot **Domain, b, c int) *Domain {
	if *slot == nil || (*slot).B != b || (*slot).C != c {
		*slot = NewDomain(l.Tiling, b, c)
	}
	return *slot
}

// NewLayer builds a Winograd layer for geometry p, initializing W from a
// spatial He-initialized filter (transformed once at construction, as the
// paper's training flow does at the start).
func NewLayer(tr *Transform, p conv.Params, rng *tensor.RNG) (*Layer, error) {
	tl, err := NewTiling(tr, p)
	if err != nil {
		return nil, err
	}
	ws := tensor.New(p.Out, p.In, p.K, p.K)
	rng.FillHe(ws, p.In*p.K*p.K)
	return &Layer{Tiling: tl, W: TransformWeights(tr, ws), sc: NewScratch()}, nil
}

// NewLayerWithWeights builds a Winograd layer whose W is the transform of
// the given spatial weights (for equivalence testing against direct conv).
func NewLayerWithWeights(tr *Transform, p conv.Params, w *tensor.Tensor) (*Layer, error) {
	tl, err := NewTiling(tr, p)
	if err != nil {
		return nil, err
	}
	return &Layer{Tiling: tl, W: TransformWeights(tr, w), sc: NewScratch()}, nil
}

// NewLayerFromParts assembles a Layer around an existing Tiling and
// Winograd-domain weights (engine-mirror references, cloned-weight
// cross-checks). Like the other constructors it builds the per-worker
// Scratch eagerly; Layers must not be assembled with a bare composite
// literal, which would leave the allocation-free hot paths without scratch.
func NewLayerFromParts(tl *Tiling, w *Weights) *Layer {
	return &Layer{Tiling: tl, W: w, sc: NewScratch()}
}

// Fprop runs the forward pass and caches the Winograd-domain input for the
// later UpdateGradW call of the same iteration.
func (l *Layer) Fprop(x *tensor.Tensor) *tensor.Tensor {
	y := tensor.New(x.N, l.W.Out, l.Tiling.P.OutH(), l.Tiling.P.OutW())
	l.FpropInto(y, x)
	return y
}

// FpropInto is Fprop writing into a caller-owned output tensor; after the
// first call at a given batch size, no allocations occur.
//
//mptlint:noalloc
func (l *Layer) FpropInto(y, x *tensor.Tensor) {
	sc := l.scratch()
	xd := l.ensureDomain(&l.xd, x.N, x.C)
	l.Tiling.TransformInputInto(xd, x, sc)
	l.lastX = xd
	yd := l.ensureDomain(&l.yd, x.N, l.W.Out)
	MulForwardInto(yd, xd, l.W, nil, sc)
	l.Tiling.InverseOutputInto(y, yd, sc)
}

// Bprop returns dx for the given dy using the current W.
func (l *Layer) Bprop(dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dy.N, l.W.In, l.Tiling.P.H, l.Tiling.P.W)
	l.BpropInto(dx, dy)
	return dx
}

// BpropInto is Bprop writing into a caller-owned gradient tensor
// (overwritten); allocation-free at steady state.
//
//mptlint:noalloc
func (l *Layer) BpropInto(dx, dy *tensor.Tensor) {
	sc := l.scratch()
	dyd := l.ensureDomain(&l.dyd, dy.N, dy.C)
	l.Tiling.TransformOutputGradInto(dyd, dy, sc)
	dxd := l.ensureDomain(&l.dxd, dy.N, l.W.In)
	MulBackwardInto(dxd, dyd, l.W, nil, sc)
	l.Tiling.InverseInputGradInto(dx, dxd, sc)
}

// UpdateGradW returns the Winograd-domain weight gradient dW for dy, using
// the input cached by the last Fprop. It panics if Fprop has not run.
func (l *Layer) UpdateGradW(dy *tensor.Tensor) *Weights {
	dw := NewWeights(l.Tiling.Tr, l.W.In, l.W.Out)
	l.UpdateGradWInto(dw, dy)
	return dw
}

// UpdateGradWInto is UpdateGradW into caller-owned Weights;
// allocation-free at steady state.
//
//mptlint:noalloc
func (l *Layer) UpdateGradWInto(dw *Weights, dy *tensor.Tensor) {
	if l.lastX == nil {
		panic("winograd: UpdateGradW before Fprop")
	}
	sc := l.scratch()
	dyd := l.ensureDomain(&l.dyd, dy.N, dy.C)
	l.Tiling.TransformOutputGradInto(dyd, dy, sc)
	MulGradInto(dw, l.lastX, dyd, nil, sc)
}

// Step applies the SGD update W -= lr·dW directly in the Winograd domain.
func (l *Layer) Step(lr float32, dw *Weights) {
	l.W.AXPY(-lr, dw)
}

// FpropDomain runs the forward pass but stops before the inverse output
// transform, returning the Winograd-domain output Y. The paper's modified
// join (Fig. 14) averages these domains across FractalNet columns so only
// the joined result pays the inverse transform and tile gathering.
func (l *Layer) FpropDomain(x *tensor.Tensor) *Domain {
	sc := l.scratch()
	xd := l.ensureDomain(&l.xd, x.N, x.C)
	l.Tiling.TransformInputInto(xd, x, sc)
	l.lastX = xd
	// The returned Domain is caller-retained (FractalNet columns hold it
	// across the joined step), so it is always freshly allocated.
	yd := NewDomain(l.Tiling, x.N, l.W.Out)
	MulForwardInto(yd, xd, l.W, nil, sc)
	return yd
}

// BpropDomain returns dx for a Winograd-domain output gradient dY (e.g.
// the split gradient of a modified join).
func (l *Layer) BpropDomain(dyd *Domain) *tensor.Tensor {
	sc := l.scratch()
	dxd := l.ensureDomain(&l.dxd, dyd.B, l.W.In)
	MulBackwardInto(dxd, dyd, l.W, nil, sc)
	return l.Tiling.InverseInputGrad(dxd)
}

// UpdateGradWDomain returns dW for a Winograd-domain output gradient,
// using the input cached by the last Fprop/FpropDomain.
func (l *Layer) UpdateGradWDomain(dyd *Domain) *Weights {
	if l.lastX == nil {
		panic("winograd: UpdateGradWDomain before Fprop")
	}
	return MulGrad(l.lastX, dyd, nil)
}
