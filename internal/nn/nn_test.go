package nn

import (
	"math"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
	"mptwino/internal/workload"
)

func TestReLUForwardBackward(t *testing.T) {
	r := &ReLU{}
	x := tensor.FromSlice(1, 1, 1, 4, []float32{-1, 2, 0, 3})
	y := r.Forward(x)
	want := []float32{0, 2, 0, 3}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("ReLU fwd = %v", y.Data)
		}
	}
	dy := tensor.FromSlice(1, 1, 1, 4, []float32{5, 5, 5, 5})
	dx := r.Backward(dy)
	wantDx := []float32{0, 5, 0, 5}
	for i := range wantDx {
		if dx.Data[i] != wantDx[i] {
			t.Fatalf("ReLU bwd = %v", dx.Data)
		}
	}
}

func TestReLUBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&ReLU{}).Backward(tensor.New(1, 1, 1, 1))
}

func TestAvgPool2(t *testing.T) {
	p := &AvgPool2{}
	x := tensor.FromSlice(1, 1, 2, 2, []float32{1, 2, 3, 6})
	y := p.Forward(x)
	if y.H != 1 || y.W != 1 || y.Data[0] != 3 {
		t.Fatalf("pool fwd = %v", y.Data)
	}
	dy := tensor.FromSlice(1, 1, 1, 1, []float32{8})
	dx := p.Backward(dy)
	for _, v := range dx.Data {
		if v != 2 {
			t.Fatalf("pool bwd = %v", dx.Data)
		}
	}
}

func TestAvgPool2OddDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for odd dims")
		}
	}()
	(&AvgPool2{}).Forward(tensor.New(1, 1, 3, 4))
}

func TestDenseGradCheck(t *testing.T) {
	rng := tensor.NewRNG(3)
	d := NewDense(6, 3, rng)
	x := tensor.New(2, 6, 1, 1)
	rng.FillNormal(x, 0, 1)
	labels := []int{1, 2}

	logits := d.Forward(x)
	_, dl := SoftmaxCrossEntropy(logits, labels)
	d.Backward(dl)

	const eps = 1e-2
	// Check two weight entries against finite differences.
	for _, idx := range []int{0, 7} {
		orig := d.W.Data[idx]
		analytic := float64(d.dW.Data[idx])
		d.W.Data[idx] = orig + eps
		lp, _ := SoftmaxCrossEntropy(d.Forward(x), labels)
		d.W.Data[idx] = orig - eps
		lm, _ := SoftmaxCrossEntropy(d.Forward(x), labels)
		d.W.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("dW[%d]: numeric %v vs analytic %v", idx, numeric, analytic)
		}
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4.
	logits := tensor.New(1, 4, 1, 1)
	loss, dl := SoftmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4", loss)
	}
	// Gradient sums to zero, negative only at the label.
	var sum float64
	for c := 0; c < 4; c++ {
		g := float64(dl.At(0, c, 0, 0))
		sum += g
		if c == 2 && g >= 0 {
			t.Fatal("label gradient should be negative")
		}
		if c != 2 && g <= 0 {
			t.Fatal("non-label gradient should be positive")
		}
	}
	if math.Abs(sum) > 1e-6 {
		t.Fatalf("gradient sum = %v", sum)
	}
}

func TestSoftmaxPanics(t *testing.T) {
	logits := tensor.New(1, 4, 1, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("label count mismatch accepted")
			}
		}()
		SoftmaxCrossEntropy(logits, []int{0, 1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range label accepted")
			}
		}()
		SoftmaxCrossEntropy(logits, []int{7})
	}()
}

// TestJoinModesEquivalent is the numeric core of Fig. 14: because the join
// (mean) is linear, moving it into the Winograd domain changes neither the
// forward output nor any gradient — the modified join must match the
// standard join to float tolerance on both passes.
func TestJoinModesEquivalent(t *testing.T) {
	p := conv.Params{In: 2, Out: 2, K: 3, Pad: 1, H: 8, W: 8}
	rng := tensor.NewRNG(17)
	std, err := NewFractalBlock(winograd.F2x2_3x3, p, SpatialJoin, rng)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewFractalBlock(winograd.F2x2_3x3, p, WinogradJoin, rng)
	if err != nil {
		t.Fatal(err)
	}
	mod.CloneWeightsFrom(std)

	x := tensor.New(2, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	y1 := std.Forward(x)
	y2 := mod.Forward(x)
	if d := y1.MaxAbsDiff(y2); d > 1e-4 {
		t.Fatalf("join forward diverges: %v", d)
	}

	dy := tensor.New(2, 2, 8, 8)
	rng.FillNormal(dy, 0, 1)
	dx1 := std.Backward(dy)
	dx2 := mod.Backward(dy)
	if d := dx1.MaxAbsDiff(dx2); d > 1e-3 {
		t.Fatalf("join backward diverges: %v", d)
	}
	// Weight gradients of every conv must also match.
	pairs := []struct{ a, b *winograd.Weights }{
		{std.dWA, mod.dWA}, {std.dWB1, mod.dWB1}, {std.dWB2, mod.dWB2},
	}
	for i, pr := range pairs {
		for e := range pr.a.El {
			for j := range pr.a.El[e].Data {
				if math.Abs(float64(pr.a.El[e].Data[j]-pr.b.El[e].Data[j])) > 1e-3 {
					t.Fatalf("weight gradient %d element %d diverges", i, e)
				}
			}
		}
	}
}

// TestFractalTrainingCurvesMatch trains both join modes from identical
// initialization and checks the loss trajectories stay equal — the "same
// validation accuracy" result of Fig. 14(b).
func TestFractalTrainingCurvesMatch(t *testing.T) {
	p := conv.Params{In: 1, Out: 4, K: 3, Pad: 1, H: 8, W: 8}
	rng := tensor.NewRNG(23)
	ds := workload.QuadrantBlobs(32, 1, 8, 8, 77)

	build := func(mode JoinMode, seed uint64) (*FractalBlock, *Sequential) {
		r := tensor.NewRNG(seed)
		blk, err := NewFractalBlock(winograd.F2x2_3x3, p, mode, r)
		if err != nil {
			t.Fatal(err)
		}
		head := &Sequential{Layers: []Layer{&ReLU{}, &AvgPool2{}, NewDense(4*4*4, 4, tensor.NewRNG(99))}}
		return blk, head
	}
	stdBlk, stdHead := build(SpatialJoin, 31)
	modBlk, modHead := build(WinogradJoin, 31)
	modBlk.CloneWeightsFrom(stdBlk)

	x, labels := ds.Batch(0, 32)
	for epoch := 0; epoch < 8; epoch++ {
		l1 := trainStep(stdBlk, stdHead, x, labels)
		l2 := trainStep(modBlk, modHead, x, labels)
		if math.Abs(l1-l2) > 1e-3*(1+math.Abs(l1)) {
			t.Fatalf("epoch %d: losses diverged %v vs %v", epoch, l1, l2)
		}
	}
	_ = rng
}

func trainStep(blk *FractalBlock, head *Sequential, x *tensor.Tensor, labels []int) float64 {
	h := blk.Forward(x)
	logits := head.Forward(h)
	loss, dl := SoftmaxCrossEntropy(logits, labels)
	dh := head.Backward(dl)
	blk.Backward(dh)
	head.Step(0.05)
	blk.Step(0.05)
	return loss
}

func TestTraceDataset(t *testing.T) {
	ds := workload.QuadrantBlobs(20, 2, 8, 8, 1)
	if ds.Images.N != 20 || ds.Classes != 4 {
		t.Fatal("dataset shape wrong")
	}
	seen := map[int]bool{}
	for _, l := range ds.Labels {
		if l < 0 || l > 3 {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	if len(seen) < 2 {
		t.Fatal("labels not diverse")
	}
	x, labels := ds.Batch(5, 9)
	if x.N != 4 || len(labels) != 4 {
		t.Fatal("batch extraction wrong")
	}
	// Batch content must match the source images.
	if x.At(0, 0, 0, 0) != ds.Images.At(5, 0, 0, 0) {
		t.Fatal("batch data mismatch")
	}
}

func TestGaussianImages(t *testing.T) {
	imgs := workload.GaussianImages(4, 3, 8, 8, 1.0, 2.0, 9)
	if imgs.N != 4 || imgs.C != 3 {
		t.Fatal("shape wrong")
	}
	var sum float64
	for _, v := range imgs.Data {
		sum += float64(v)
	}
	mean := sum / float64(imgs.Len())
	if math.Abs(mean-1.0) > 0.2 {
		t.Fatalf("mean = %v, want ~1", mean)
	}
}
