// Package nn is a small numeric CNN training framework over the winograd
// package. It exists to train the Fig. 14 experiment end to end:
// FractalNet-style join blocks in both the standard and the paper's
// modified (Winograd-domain) form, under a ReLU, pooling and dense head.
package nn

import (
	"fmt"
	"math"

	"mptwino/internal/tensor"
)

// Layer is one differentiable stage. Forward caches whatever Backward
// needs; Backward returns dL/dx for the last forwarded batch and
// accumulates parameter gradients; Step applies SGD and clears them.
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Step(lr float32)
}

// ReLU is the rectified linear activation the paper's activation
// prediction targets.
type ReLU struct {
	mask []bool
}

// Forward clamps negatives to zero.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := x.Clone()
	r.mask = make([]bool, len(x.Data))
	for i, v := range x.Data {
		if v > 0 {
			r.mask[i] = true
		} else {
			y.Data[i] = 0
		}
	}
	return y
}

// Backward gates gradients by the activation mask.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil || len(r.mask) != len(dy.Data) {
		panic("nn: ReLU.Backward before Forward or with mismatched shape")
	}
	dx := dy.Clone()
	for i, live := range r.mask {
		if !live {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Step is a no-op (no parameters).
func (r *ReLU) Step(lr float32) {}

// AvgPool2 is 2×2 average pooling with stride 2 (input dims must be even).
type AvgPool2 struct {
	inShape [4]int
}

// Forward averages non-overlapping 2×2 windows.
func (p *AvgPool2) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.H%2 != 0 || x.W%2 != 0 {
		panic(fmt.Sprintf("nn: AvgPool2 needs even dims, got %s", x.ShapeString()))
	}
	p.inShape = [4]int{x.N, x.C, x.H, x.W}
	y := tensor.New(x.N, x.C, x.H/2, x.W/2)
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			for h := 0; h < x.H; h += 2 {
				for w := 0; w < x.W; w += 2 {
					s := x.At(n, c, h, w) + x.At(n, c, h, w+1) +
						x.At(n, c, h+1, w) + x.At(n, c, h+1, w+1)
					y.Set(n, c, h/2, w/2, s/4)
				}
			}
		}
	}
	return y
}

// Backward spreads each gradient evenly over its window.
func (p *AvgPool2) Backward(dy *tensor.Tensor) *tensor.Tensor {
	s := p.inShape
	dx := tensor.New(s[0], s[1], s[2], s[3])
	for n := 0; n < dy.N; n++ {
		for c := 0; c < dy.C; c++ {
			for h := 0; h < dy.H; h++ {
				for w := 0; w < dy.W; w++ {
					g := dy.At(n, c, h, w) / 4
					dx.Set(n, c, 2*h, 2*w, g)
					dx.Set(n, c, 2*h, 2*w+1, g)
					dx.Set(n, c, 2*h+1, 2*w, g)
					dx.Set(n, c, 2*h+1, 2*w+1, g)
				}
			}
		}
	}
	return dx
}

// Step is a no-op.
func (p *AvgPool2) Step(lr float32) {}

// Dense is a fully connected classifier head over the flattened input.
type Dense struct {
	In, Out int
	W       *tensor.Mat // In×Out
	B       []float32

	x  *tensor.Tensor
	dW *tensor.Mat
	dB []float32
}

// NewDense initializes a Dense layer with He-scaled weights.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	d := &Dense{In: in, Out: out, W: tensor.NewMat(in, out), B: make([]float32, out)}
	sigma := float32(math.Sqrt(2 / float64(in)))
	for i := range d.W.Data {
		d.W.Data[i] = sigma * float32(rng.NormFloat64())
	}
	return d
}

// Forward computes y = xW + b over the flattened feature dims.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.C*x.H*x.W != d.In {
		panic(fmt.Sprintf("nn: Dense expects %d features, got %s", d.In, x.ShapeString()))
	}
	d.x = x
	y := tensor.New(x.N, d.Out, 1, 1)
	for n := 0; n < x.N; n++ {
		row := x.Data[n*d.In : (n+1)*d.In]
		for o := 0; o < d.Out; o++ {
			acc := d.B[o]
			for i, xv := range row {
				acc += xv * d.W.At(i, o)
			}
			y.Set(n, o, 0, 0, acc)
		}
	}
	return y
}

// Backward accumulates dW, dB and returns dx.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	x := d.x
	if x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	if d.dW == nil {
		d.dW = tensor.NewMat(d.In, d.Out)
		d.dB = make([]float32, d.Out)
	}
	dx := tensor.New(x.N, x.C, x.H, x.W)
	for n := 0; n < x.N; n++ {
		xrow := x.Data[n*d.In : (n+1)*d.In]
		dxrow := dx.Data[n*d.In : (n+1)*d.In]
		for o := 0; o < d.Out; o++ {
			g := dy.At(n, o, 0, 0)
			d.dB[o] += g
			for i, xv := range xrow {
				d.dW.Data[i*d.Out+o] += xv * g
				dxrow[i] += d.W.At(i, o) * g
			}
		}
	}
	return dx
}

// Step applies SGD and clears gradients.
func (d *Dense) Step(lr float32) {
	if d.dW == nil {
		return
	}
	for i := range d.W.Data {
		d.W.Data[i] -= lr * d.dW.Data[i]
		d.dW.Data[i] = 0
	}
	for o := range d.B {
		d.B[o] -= lr * d.dB[o]
		d.dB[o] = 0
	}
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward runs the chain.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs the chain in reverse.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Step updates every layer.
func (s *Sequential) Step(lr float32) {
	for _, l := range s.Layers {
		l.Step(lr)
	}
}

// SoftmaxCrossEntropy returns the mean cross-entropy loss of logits
// (N,classes,1,1) against integer labels, and dL/dlogits.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if len(labels) != logits.N {
		panic(fmt.Sprintf("nn: %d labels for batch %d", len(labels), logits.N))
	}
	classes := logits.C
	dl := tensor.New(logits.N, classes, 1, 1)
	var loss float64
	for n := 0; n < logits.N; n++ {
		// stable softmax
		maxv := float32(math.Inf(-1))
		for c := 0; c < classes; c++ {
			if v := logits.At(n, c, 0, 0); v > maxv {
				maxv = v
			}
		}
		var sum float64
		for c := 0; c < classes; c++ {
			sum += math.Exp(float64(logits.At(n, c, 0, 0) - maxv))
		}
		lbl := labels[n]
		if lbl < 0 || lbl >= classes {
			panic(fmt.Sprintf("nn: label %d out of range %d", lbl, classes))
		}
		logp := float64(logits.At(n, lbl, 0, 0)-maxv) - math.Log(sum)
		loss -= logp
		for c := 0; c < classes; c++ {
			p := math.Exp(float64(logits.At(n, c, 0, 0)-maxv)) / sum
			g := float32(p)
			if c == lbl {
				g -= 1
			}
			dl.Set(n, c, 0, 0, g/float32(logits.N))
		}
	}
	return loss / float64(logits.N), dl
}
