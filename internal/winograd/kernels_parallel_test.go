package winograd

import (
	"os"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
)

// domainsEqual compares two Domains element-for-element, bitwise.
func domainsEqual(a, b *Domain) bool {
	if a.B != b.B || a.C != b.C || len(a.El) != len(b.El) {
		return false
	}
	for e := range a.El {
		for i := range a.El[e].Data {
			if a.El[e].Data[i] != b.El[e].Data[i] {
				return false
			}
		}
	}
	return true
}

func weightsEqual(a, b *Weights) bool {
	if a.In != b.In || a.Out != b.Out || len(a.El) != len(b.El) {
		return false
	}
	for e := range a.El {
		for i := range a.El[e].Data {
			if a.El[e].Data[i] != b.El[e].Data[i] {
				return false
			}
		}
	}
	return true
}

func tensorsEqual(a, b *tensor.Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// TestWinogradKernelsBitIdenticalAcrossWorkers runs the full set of
// Winograd-domain kernels — forward/backward transforms, the T² element
// GEMMs, and the weight transforms — under worker counts {1, 2, 8} and
// asserts bitwise-identical results. The parallel grains (batch images,
// tile elements, output filters) all own disjoint output regions and keep
// per-slot accumulation order, so any divergence is a sharding bug.
func TestWinogradKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	p := conv.Params{In: 3, Out: 4, K: 3, Pad: 1, H: 8, W: 6}
	tl, err := NewTiling(F2x2_3x3, p)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(31)
	x := tensor.New(3, p.In, p.H, p.W)
	r.FillNormal(x, 0, 1)
	sw := tensor.New(p.Out, p.In, p.K, p.K)
	r.FillHe(sw, p.In*p.K*p.K)
	dy := tensor.New(3, p.Out, p.OutH(), p.OutW())
	r.FillNormal(dy, 0, 1)

	type snapshot struct {
		xd, yd, dyd, dxd *Domain
		y, dx, dwSpatial *tensor.Tensor
		ww, dw           *Weights
	}
	run := func(workers int) snapshot {
		prev := parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(prev)
		var s snapshot
		s.ww = TransformWeights(F2x2_3x3, sw)
		s.xd = tl.TransformInput(x)
		s.yd = MulForward(s.xd, s.ww, nil)
		s.y = tl.InverseOutput(s.yd)
		s.dyd = tl.TransformOutputGrad(dy)
		s.dxd = MulBackward(s.dyd, s.ww, nil)
		s.dx = tl.InverseInputGrad(s.dxd)
		s.dw = MulGrad(s.xd, s.dyd, nil)
		s.dwSpatial = s.dw.ToSpatialGrad()
		return s
	}

	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !weightsEqual(ref.ww, got.ww) {
			t.Errorf("workers=%d: TransformWeights differs", workers)
		}
		if !domainsEqual(ref.xd, got.xd) {
			t.Errorf("workers=%d: TransformInput differs", workers)
		}
		if !domainsEqual(ref.yd, got.yd) {
			t.Errorf("workers=%d: MulForward differs", workers)
		}
		if !tensorsEqual(ref.y, got.y) {
			t.Errorf("workers=%d: InverseOutput differs", workers)
		}
		if !domainsEqual(ref.dyd, got.dyd) {
			t.Errorf("workers=%d: TransformOutputGrad differs", workers)
		}
		if !domainsEqual(ref.dxd, got.dxd) {
			t.Errorf("workers=%d: MulBackward differs", workers)
		}
		if !tensorsEqual(ref.dx, got.dx) {
			t.Errorf("workers=%d: InverseInputGrad differs", workers)
		}
		if !weightsEqual(ref.dw, got.dw) {
			t.Errorf("workers=%d: MulGrad differs", workers)
		}
		if !tensorsEqual(ref.dwSpatial, got.dwSpatial) {
			t.Errorf("workers=%d: ToSpatialGrad differs", workers)
		}
	}
}

// TestWinogradKernelsBitIdenticalAcrossWorkersPerTier is the dispatch-tier
// sweep of the worker-count contract: for every GEMM tier this CPU offers,
// the layer pipeline (forward, backward, weight gradient) is bitwise
// identical at worker counts {1, 2, 8}, and every tier reproduces the
// portable tier's bits exactly. Geometry is sized so the T² element
// GEMMs cross the blocked-kernel threshold and actually exercise the
// assembly micro-kernels.
func TestWinogradKernelsBitIdenticalAcrossWorkersPerTier(t *testing.T) {
	defer func() {
		if err := tensor.SelectGemmKernel(os.Getenv(tensor.EnvGemmKernel)); err != nil {
			t.Fatal(err)
		}
	}()
	p := conv.Params{In: 32, Out: 32, K: 3, Pad: 1, H: 16, W: 16}
	tl, err := NewTiling(F4x4_3x3, p)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(77)
	x := tensor.New(4, p.In, p.H, p.W)
	r.FillNormal(x, 0, 1)
	sw := tensor.New(p.Out, p.In, p.K, p.K)
	r.FillHe(sw, p.In*p.K*p.K)
	dy := tensor.New(4, p.Out, p.OutH(), p.OutW())
	r.FillNormal(dy, 0, 1)

	type snapshot struct {
		y, dx *tensor.Tensor
		dw    *Weights
	}
	run := func(workers int) snapshot {
		prev := parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(prev)
		ww := TransformWeights(F4x4_3x3, sw)
		xd := tl.TransformInput(x)
		dyd := tl.TransformOutputGrad(dy)
		return snapshot{
			y:  tl.InverseOutput(MulForward(xd, ww, nil)),
			dx: tl.InverseInputGrad(MulBackward(dyd, ww, nil)),
			dw: MulGrad(xd, dyd, nil),
		}
	}

	var portable snapshot
	for _, tier := range tensor.GemmKernels() {
		if err := tensor.SelectGemmKernel(tier); err != nil {
			t.Fatal(err)
		}
		ref := run(1)
		for _, workers := range []int{2, 8} {
			got := run(workers)
			if !tensorsEqual(ref.y, got.y) {
				t.Errorf("tier=%s workers=%d: forward differs from workers=1", tier, workers)
			}
			if !tensorsEqual(ref.dx, got.dx) {
				t.Errorf("tier=%s workers=%d: backward differs from workers=1", tier, workers)
			}
			if !weightsEqual(ref.dw, got.dw) {
				t.Errorf("tier=%s workers=%d: weight grad differs from workers=1", tier, workers)
			}
		}
		if tier == "portable" {
			portable = ref
		} else if !tensorsEqual(portable.y, ref.y) || !tensorsEqual(portable.dx, ref.dx) || !weightsEqual(portable.dw, ref.dw) {
			t.Errorf("tier=%s: differs from portable bits", tier)
		}
	}
}

// TestGroupedMulRespectsElementSelection ensures the parallel element
// fan-out still computes exactly the selected elements: unselected element
// matrices must stay zero.
func TestGroupedMulRespectsElementSelection(t *testing.T) {
	p := conv.Params{In: 2, Out: 3, K: 3, Pad: 1, H: 6, W: 6}
	tl, err := NewTiling(F2x2_3x3, p)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(5)
	x := tensor.New(2, p.In, p.H, p.W)
	r.FillNormal(x, 0, 1)
	sw := tensor.New(p.Out, p.In, p.K, p.K)
	r.FillHe(sw, p.In*p.K*p.K)

	ww := TransformWeights(F2x2_3x3, sw)
	xd := tl.TransformInput(x)
	elems := GroupElements(F2x2_3x3.T, 4, 1)
	y := MulForward(xd, ww, elems)
	sel := make(map[int]bool, len(elems))
	for _, e := range elems {
		sel[e] = true
	}
	for e := range y.El {
		nonzero := false
		for _, v := range y.El[e].Data {
			if v != 0 {
				nonzero = true
				break
			}
		}
		if nonzero && !sel[e] {
			t.Errorf("element %d computed but not selected", e)
		}
	}
}
