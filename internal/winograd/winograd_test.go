package winograd

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"math/rand"

	"mptwino/internal/conv"
	"mptwino/internal/tensor"
)

// directCorrelate1D computes the length-m correlation of a length-T signal
// with a length-r filter: y_k = Σ_j d_{k+j} g_j.
func directCorrelate1D(d, g []float32) []float32 {
	m := len(d) - len(g) + 1
	out := make([]float32, m)
	for k := 0; k < m; k++ {
		var acc float32
		for j, gv := range g {
			acc += d[k+j] * gv
		}
		out[k] = acc
	}
	return out
}

// apply1D runs the 1-D Winograd algorithm y = Aᵀ[(G g) ⊙ (Bᵀ d)].
func apply1D(tr *Transform, d, g []float32) []float32 {
	gd := matVecT(tr.G, g)
	dd := matVecT(tr.BT, d)
	prod := make([]float32, tr.T)
	for i := range prod {
		prod[i] = gd[i] * dd[i]
	}
	return matVecT(tr.AT, prod)
}

func matVecT(m *tensor.Mat, v []float32) []float32 {
	out := make([]float32, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var acc float32
		for c := 0; c < m.Cols; c++ {
			acc += m.At(r, c) * v[c]
		}
		out[r] = acc
	}
	return out
}

func maxDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// TestCookToom1DCorrectness checks the synthesized transforms against
// direct correlation for every size the paper uses plus larger extensions.
func TestCookToom1DCorrectness(t *testing.T) {
	cases := []struct{ m, r int }{
		{2, 3}, {4, 3}, {2, 5}, {6, 3}, {4, 5}, {3, 3}, {2, 2}, {1, 3}, {5, 5},
	}
	rng := tensor.NewRNG(21)
	for _, cs := range cases {
		tr, err := MakeTransform(cs.m, cs.r)
		if err != nil {
			t.Fatalf("F(%d,%d): %v", cs.m, cs.r, err)
		}
		if tr.T != cs.m+cs.r-1 {
			t.Fatalf("F(%d,%d): T=%d", cs.m, cs.r, tr.T)
		}
		for trial := 0; trial < 5; trial++ {
			d := make([]float32, tr.T)
			g := make([]float32, tr.R)
			for i := range d {
				d[i] = float32(rng.NormFloat64())
			}
			for i := range g {
				g[i] = float32(rng.NormFloat64())
			}
			got := apply1D(tr, d, g)
			want := directCorrelate1D(d, g)
			if diff := maxDiff(got, want); diff > 1e-3 {
				t.Fatalf("F(%d,%d) trial %d: maxdiff %v\n got %v\nwant %v",
					cs.m, cs.r, trial, diff, got, want)
			}
		}
	}
}

func TestMakeTransformErrors(t *testing.T) {
	if _, err := MakeTransform(0, 3); err == nil {
		t.Fatal("F(0,3) accepted")
	}
	if _, err := MakeTransform(12, 12); err == nil {
		t.Fatal("transform needing too many points accepted")
	}
}

func TestForKernel(t *testing.T) {
	tr, err := ForKernel(3, 16)
	if err != nil || tr != F2x2_3x3 {
		t.Fatalf("3x3 multi-group: got %v, %v", tr, err)
	}
	tr, err = ForKernel(3, 1)
	if err != nil || tr != F4x4_3x3 {
		t.Fatalf("3x3 single-group: got %v, %v", tr, err)
	}
	tr, err = ForKernel(5, 4)
	if err != nil || tr != F2x2_5x5 {
		t.Fatalf("5x5: got %v, %v", tr, err)
	}
	if _, err := ForKernel(7, 1); err == nil {
		t.Fatal("7x7 should be unsupported")
	}
}

// TestFilterTransform2DKnownValue: a delta filter in the spatial domain
// convolved with any tile must reproduce direct convolution; check the 2-D
// sandwich path on one known case.
func TestFprop2DSingleTileVsDirect(t *testing.T) {
	for _, tr := range []*Transform{F2x2_3x3, F4x4_3x3, F2x2_5x5} {
		p := conv.Params{In: 1, Out: 1, K: tr.R, Pad: 0, H: tr.T, W: tr.T}
		rng := tensor.NewRNG(31)
		x := tensor.New(1, 1, tr.T, tr.T)
		w := tensor.New(1, 1, tr.R, tr.R)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(w, 0, 1)
		want := conv.Fprop(p, x, w)
		got := Fprop(tr, p, x, w)
		if d := got.MaxAbsDiff(want); d > 1e-3 {
			t.Fatalf("%s single tile: maxdiff %v", tr, d)
		}
	}
}

// TestFpropMatchesDirect is the central equivalence: tiled Winograd fprop
// equals direct convolution on multi-channel, multi-batch, padded layers
// whose outputs are not multiples of the tile size (partial edge tiles).
func TestFpropMatchesDirect(t *testing.T) {
	cases := []struct {
		tr *Transform
		p  conv.Params
		b  int
	}{
		{F2x2_3x3, conv.Params{In: 3, Out: 4, K: 3, Pad: 1, H: 9, W: 7}, 2},
		{F4x4_3x3, conv.Params{In: 2, Out: 3, K: 3, Pad: 1, H: 10, W: 10}, 2},
		{F4x4_3x3, conv.Params{In: 2, Out: 2, K: 3, Pad: 1, H: 7, W: 9}, 1}, // partial tiles
		{F2x2_5x5, conv.Params{In: 2, Out: 2, K: 5, Pad: 2, H: 8, W: 8}, 2},
		{F2x2_3x3, conv.Params{In: 1, Out: 1, K: 3, Pad: 0, H: 8, W: 8}, 1}, // no padding
	}
	rng := tensor.NewRNG(37)
	for ci, cs := range cases {
		x := tensor.New(cs.b, cs.p.In, cs.p.H, cs.p.W)
		w := tensor.New(cs.p.Out, cs.p.In, cs.p.K, cs.p.K)
		rng.FillNormal(x, 0, 1)
		rng.FillHe(w, cs.p.In*cs.p.K*cs.p.K)
		want := conv.Fprop(cs.p, x, w)
		got := Fprop(cs.tr, cs.p, x, w)
		if d := got.MaxAbsDiff(want); d > 2e-3 {
			t.Fatalf("case %d (%s): fprop maxdiff %v", ci, cs.tr, d)
		}
	}
}

func TestBpropMatchesDirect(t *testing.T) {
	cases := []struct {
		tr *Transform
		p  conv.Params
	}{
		{F2x2_3x3, conv.Params{In: 2, Out: 3, K: 3, Pad: 1, H: 8, W: 6}},
		{F4x4_3x3, conv.Params{In: 2, Out: 2, K: 3, Pad: 1, H: 9, W: 9}},
		{F2x2_5x5, conv.Params{In: 1, Out: 2, K: 5, Pad: 2, H: 8, W: 8}},
	}
	rng := tensor.NewRNG(41)
	for ci, cs := range cases {
		dy := tensor.New(2, cs.p.Out, cs.p.OutH(), cs.p.OutW())
		w := tensor.New(cs.p.Out, cs.p.In, cs.p.K, cs.p.K)
		rng.FillNormal(dy, 0, 1)
		rng.FillHe(w, cs.p.In*cs.p.K*cs.p.K)
		want := conv.Bprop(cs.p, dy, w)
		got := Bprop(cs.tr, cs.p, dy, w)
		if d := got.MaxAbsDiff(want); d > 2e-3 {
			t.Fatalf("case %d (%s): bprop maxdiff %v", ci, cs.tr, d)
		}
	}
}

func TestUpdateGradMatchesDirect(t *testing.T) {
	cases := []struct {
		tr *Transform
		p  conv.Params
	}{
		{F2x2_3x3, conv.Params{In: 2, Out: 2, K: 3, Pad: 1, H: 6, W: 8}},
		{F4x4_3x3, conv.Params{In: 1, Out: 2, K: 3, Pad: 1, H: 8, W: 8}},
		{F2x2_5x5, conv.Params{In: 1, Out: 1, K: 5, Pad: 2, H: 8, W: 8}},
	}
	rng := tensor.NewRNG(43)
	for ci, cs := range cases {
		x := tensor.New(2, cs.p.In, cs.p.H, cs.p.W)
		dy := tensor.New(2, cs.p.Out, cs.p.OutH(), cs.p.OutW())
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(dy, 0, 0.5)
		want := conv.UpdateGrad(cs.p, x, dy)
		got := UpdateGrad(cs.tr, cs.p, x, dy)
		// dw accumulates over batch and all positions; tolerance scales.
		tol := 1e-2 * (1 + want.L2Norm()/math.Sqrt(float64(want.Len())))
		if d := got.MaxAbsDiff(want); d > tol {
			t.Fatalf("case %d (%s): updateGrad maxdiff %v (tol %v)", ci, cs.tr, d, tol)
		}
	}
}

// TestLayerMatchesSpatialPath: the Winograd layer initialized from spatial
// weights must produce identical fprop/bprop, and its Winograd-domain
// gradient mapped back with Gᵀ·dW·G must match the spatial gradient.
func TestLayerMatchesSpatialPath(t *testing.T) {
	p := conv.Params{In: 2, Out: 3, K: 3, Pad: 1, H: 8, W: 8}
	rng := tensor.NewRNG(47)
	x := tensor.New(2, p.In, p.H, p.W)
	w := tensor.New(p.Out, p.In, p.K, p.K)
	rng.FillNormal(x, 0, 1)
	rng.FillHe(w, p.In*9)

	l, err := NewLayerWithWeights(F2x2_3x3, p, w)
	if err != nil {
		t.Fatal(err)
	}
	y := l.Fprop(x)
	if d := y.MaxAbsDiff(conv.Fprop(p, x, w)); d > 2e-3 {
		t.Fatalf("layer fprop maxdiff %v", d)
	}
	dy := tensor.New(2, p.Out, p.OutH(), p.OutW())
	rng.FillNormal(dy, 0, 1)
	dx := l.Bprop(dy)
	if d := dx.MaxAbsDiff(conv.Bprop(p, dy, w)); d > 2e-3 {
		t.Fatalf("layer bprop maxdiff %v", d)
	}
	dW := l.UpdateGradW(dy)
	dwSpatial := dW.ToSpatialGrad()
	want := conv.UpdateGrad(p, x, dy)
	tol := 1e-2 * (1 + want.L2Norm()/math.Sqrt(float64(want.Len())))
	if d := dwSpatial.MaxAbsDiff(want); d > tol {
		t.Fatalf("layer updateGrad maxdiff %v", d)
	}
}

func TestUpdateGradWPanicsBeforeFprop(t *testing.T) {
	p := conv.Params{In: 1, Out: 1, K: 3, Pad: 1, H: 4, W: 4}
	l, _ := NewLayer(F2x2_3x3, p, tensor.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateGradW before Fprop did not panic")
		}
	}()
	l.UpdateGradW(tensor.New(1, 1, 4, 4))
}

// TestLayerStepDescendsLoss: a few SGD steps of the Winograd layer on
// L = 0.5||y − target||² must reduce the loss, exercising the Fig. 2(b)
// update-in-Winograd-domain flow end to end.
func TestLayerStepDescendsLoss(t *testing.T) {
	p := conv.Params{In: 2, Out: 2, K: 3, Pad: 1, H: 6, W: 6}
	rng := tensor.NewRNG(53)
	l, err := NewLayer(F2x2_3x3, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, p.In, p.H, p.W)
	target := tensor.New(2, p.Out, p.OutH(), p.OutW())
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(target, 0, 1)

	loss := func() float64 {
		y := l.Fprop(x)
		var s float64
		for i := range y.Data {
			d := float64(y.Data[i] - target.Data[i])
			s += 0.5 * d * d
		}
		return s
	}
	l0 := loss()
	for it := 0; it < 10; it++ {
		y := l.Fprop(x)
		dy := y.Clone()
		dy.AXPY(-1, target)
		dW := l.UpdateGradW(dy)
		l.Step(0.002, dW)
	}
	l1 := loss()
	if l1 >= l0 {
		t.Fatalf("Winograd-layer SGD did not descend: %v -> %v", l0, l1)
	}
}

// Property: partitioning elements across groups and summing per-group
// forward results reconstructs the full forward result — the independence
// that makes intra-tile parallelism exact (Fig. 4(b)).
func TestGroupPartitionExactness(t *testing.T) {
	p := conv.Params{In: 2, Out: 2, K: 3, Pad: 1, H: 6, W: 6}
	tr := F2x2_3x3
	tl, _ := NewTiling(tr, p)
	rng := tensor.NewRNG(59)
	x := tensor.New(1, p.In, p.H, p.W)
	w := tensor.New(p.Out, p.In, 3, 3)
	rng.FillNormal(x, 0, 1)
	rng.FillHe(w, p.In*9)
	xd := tl.TransformInput(x)
	wd := TransformWeights(tr, w)

	full := MulForward(xd, wd, nil)
	for _, ng := range []int{1, 2, 4, 8, 16} {
		sum := newDomain(tl, 1, p.Out)
		covered := map[int]bool{}
		for g := 0; g < ng; g++ {
			els := GroupElements(tr.T, ng, g)
			part := MulForward(xd, wd, els)
			for _, e := range els {
				if covered[e] {
					t.Fatalf("ng=%d: element %d assigned twice", ng, e)
				}
				covered[e] = true
				copy(sum.El[e].Data, part.El[e].Data)
			}
		}
		if len(covered) != tr.T*tr.T {
			t.Fatalf("ng=%d: %d of %d elements covered", ng, len(covered), tr.T*tr.T)
		}
		for e := range full.El {
			for i := range full.El[e].Data {
				if full.El[e].Data[i] != sum.El[e].Data[i] {
					t.Fatalf("ng=%d: element %d differs", ng, e)
				}
			}
		}
	}
}

func TestGroupElementsLines(t *testing.T) {
	// 4 groups over a 4x4 tile: each group holds one whole line.
	if !HoldsWholeLines(4, 4) {
		t.Fatal("T=4, Ng=4 should hold whole lines")
	}
	if !HoldsWholeLines(4, 1) || !HoldsWholeLines(4, 2) {
		t.Fatal("T=4 Ng in {1,2} should hold whole lines")
	}
	if HoldsWholeLines(4, 16) {
		t.Fatal("T=4, Ng=16 gives single elements, not lines")
	}
	els := GroupElements(4, 4, 2)
	want := []int{8, 9, 10, 11}
	for i := range want {
		if els[i] != want[i] {
			t.Fatalf("GroupElements(4,4,2) = %v", els)
		}
	}
}

func TestGroupElementsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad group did not panic")
		}
	}()
	GroupElements(4, 4, 4)
}

// Property: InverseInputGrad is the adjoint of TransformInput:
// <TransformInput(x), D> == <x, InverseInputGrad(D)> for random D.
func TestInputTransformAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		p := conv.Params{In: 1 + rng.Intn(2), Out: 1, K: 3, Pad: 1,
			H: 4 + rng.Intn(4), W: 4 + rng.Intn(4)}
		tl, err := NewTiling(F2x2_3x3, p)
		if err != nil {
			return true
		}
		x := tensor.New(1, p.In, p.H, p.W)
		rng.FillNormal(x, 0, 1)
		xd := tl.TransformInput(x)
		d := newDomain(tl, 1, p.In)
		for e := range d.El {
			for i := range d.El[e].Data {
				d.El[e].Data[i] = float32(rng.NormFloat64())
			}
		}
		var lhs float64
		for e := range d.El {
			for i := range d.El[e].Data {
				lhs += float64(xd.El[e].Data[i]) * float64(d.El[e].Data[i])
			}
		}
		back := tl.InverseInputGrad(d)
		var rhs float64
		for i := range x.Data {
			rhs += float64(x.Data[i]) * float64(back.Data[i])
		}
		return math.Abs(lhs-rhs) < 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: OutputToWinograd is the adjoint of InverseOutput.
func TestOutputTransformAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		p := conv.Params{In: 1, Out: 1 + rng.Intn(2), K: 3, Pad: 1,
			H: 4 + rng.Intn(4), W: 4 + rng.Intn(4)}
		tl, err := NewTiling(F2x2_3x3, p)
		if err != nil {
			return true
		}
		d := newDomain(tl, 1, p.Out)
		for e := range d.El {
			for i := range d.El[e].Data {
				d.El[e].Data[i] = float32(rng.NormFloat64())
			}
		}
		dy := tensor.New(1, p.Out, p.OutH(), p.OutW())
		rng.FillNormal(dy, 0, 1)
		y := tl.InverseOutput(d)
		var lhs float64
		for i := range y.Data {
			lhs += float64(y.Data[i]) * float64(dy.Data[i])
		}
		dyd := tl.TransformOutputGrad(dy)
		var rhs float64
		for e := range d.El {
			for i := range d.El[e].Data {
				rhs += float64(d.El[e].Data[i]) * float64(dyd.El[e].Data[i])
			}
		}
		return math.Abs(lhs-rhs) < 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPNSplit(t *testing.T) {
	m := tensor.MatFromSlice(2, 2, []float32{1, -2, 0, 3})
	pos, neg := PNSplit(m)
	if pos.Data[0] != 1 || pos.Data[1] != 0 || pos.Data[3] != 3 {
		t.Fatalf("pos = %v", pos.Data)
	}
	if neg.Data[1] != -2 || neg.Data[0] != 0 {
		t.Fatalf("neg = %v", neg.Data)
	}
	// pos + neg must reconstruct m.
	for i := range m.Data {
		if pos.Data[i]+neg.Data[i] != m.Data[i] {
			t.Fatal("PNSplit does not partition")
		}
	}
}

func TestCostModel(t *testing.T) {
	p := conv.Params{In: 64, Out: 64, K: 3, Pad: 1, H: 56, W: 56}
	red, inc := Savings(F4x4_3x3, p, 256)
	// F(4x4,3x3) theoretically reduces multiplications 4x; with transform
	// overhead and edge tiles the dot-product reduction must still land
	// well above 2x (paper: 2.8x average across layers).
	if red < 2 || red > 5 {
		t.Fatalf("compute reduction %v out of plausible range", red)
	}
	// and data access must increase (paper: 4.4x average).
	if inc < 1.5 {
		t.Fatalf("access increase %v, expected > 1.5", inc)
	}
	// Winograd weight bytes must be (T/K)² larger than spatial.
	fc := FpropCost(F4x4_3x3, p, 256)
	if fc.WeightBytes != int64(64*64*36*4) {
		t.Fatalf("weight bytes %d", fc.WeightBytes)
	}
	// updateGrad and fprop dot MACs match.
	if UpdateGradCost(F4x4_3x3, p, 8).DotMACs != FpropCost(F4x4_3x3, p, 8).DotMACs {
		t.Fatal("updateGrad dot MACs should equal fprop dot MACs")
	}
}

func TestWeightsBytesAndClone(t *testing.T) {
	w := NewWeights(F2x2_3x3, 8, 16)
	if w.Bytes() != int64(16*8*16*4) {
		t.Fatalf("Bytes = %d", w.Bytes())
	}
	w.El[3].Set(1, 2, 5)
	c := w.Clone()
	c.El[3].Set(1, 2, 9)
	if w.El[3].At(1, 2) != 5 {
		t.Fatal("Clone shares storage")
	}
	c.AXPY(2, w)
	if c.El[3].At(1, 2) != 19 {
		t.Fatalf("AXPY: got %v", c.El[3].At(1, 2))
	}
}

func TestTransform1DHelpers(t *testing.T) {
	tr := F2x2_3x3
	rng := tensor.NewRNG(61)
	d := make([]float32, tr.T)
	g := make([]float32, tr.R)
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	// 1-D algorithm via the helpers must match direct correlation.
	gd := matVecT(tr.G, g)
	dd := tr.Transform1DInput(d)
	prod := make([]float32, tr.T)
	for i := range prod {
		prod[i] = gd[i] * dd[i]
	}
	got := tr.Inverse1DOutput(prod)
	want := directCorrelate1D(d, g)
	if diff := maxDiff(got, want); diff > 1e-4 {
		t.Fatalf("1D helpers maxdiff %v", diff)
	}
}

func TestNewTilingRejectsMismatchedKernel(t *testing.T) {
	if _, err := NewTiling(F2x2_3x3, conv.Params{In: 1, Out: 1, K: 5, Pad: 2, H: 8, W: 8}); err == nil {
		t.Fatal("kernel/transform mismatch accepted")
	}
}

// TestLiftOutputBias: the lifted constant tile must inverse-transform to
// exactly the requested bias at every output neuron.
func TestLiftOutputBias(t *testing.T) {
	for _, tr := range []*Transform{F2x2_3x3, F4x4_3x3, F2x2_5x5} {
		l := tr.LiftOutputBias(-1.5)
		out := tr.OutputFromWinograd(l)
		for i, v := range out.Data {
			if math.Abs(float64(v)+1.5) > 1e-3 {
				t.Fatalf("%s: lifted bias output[%d] = %v, want -1.5", tr, i, v)
			}
		}
	}
}

// TestAddOutputBiasShiftsNeurons: adding a bias to an output Domain must
// shift the inverse-transformed feature map by exactly that bias.
func TestAddOutputBiasShiftsNeurons(t *testing.T) {
	p := conv.Params{In: 1, Out: 2, K: 3, Pad: 1, H: 8, W: 8}
	tl, err := NewTiling(F2x2_3x3, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	d := newDomain(tl, 1, 2)
	for e := range d.El {
		for i := range d.El[e].Data {
			d.El[e].Data[i] = float32(rng.NormFloat64())
		}
	}
	before := tl.InverseOutput(d)
	d.AddOutputBias(2.25)
	after := tl.InverseOutput(d)
	for i := range before.Data {
		if math.Abs(float64(after.Data[i]-before.Data[i]-2.25)) > 1e-4 {
			t.Fatalf("neuron %d shifted by %v, want 2.25", i, after.Data[i]-before.Data[i])
		}
	}
}

func TestDomainScaleAddClone(t *testing.T) {
	p := conv.Params{In: 1, Out: 1, K: 3, Pad: 1, H: 4, W: 4}
	tl, _ := NewTiling(F2x2_3x3, p)
	a := newDomain(tl, 1, 1)
	a.El[0].Data[0] = 2
	b := a.Clone()
	b.Scale(3)
	if a.El[0].Data[0] != 2 || b.El[0].Data[0] != 6 {
		t.Fatal("Clone/Scale wrong")
	}
	a.AddDomain(b)
	if a.El[0].Data[0] != 8 {
		t.Fatal("AddDomain wrong")
	}
}

// requirePanicNaming runs f and requires a panic whose message names
// every one of parts (a bare index-out-of-range does not).
func requirePanicNaming(t *testing.T, what string, f func(), parts ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", what)
			return
		}
		msg := fmt.Sprint(r)
		for _, p := range parts {
			if !strings.Contains(msg, p) {
				t.Errorf("%s: panic %q does not name %q", what, msg, p)
			}
		}
	}()
	f()
}

func TestAddDomainShapeMismatchPanics(t *testing.T) {
	tiling := func(tr *Transform, k, hw, pad int) *Tiling {
		tl, err := NewTiling(tr, conv.Params{In: 1, Out: 1, K: k, Pad: pad, H: hw, W: hw})
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	small := tiling(F2x2_3x3, 3, 4, 1) // 2×2 = 4 tiles
	large := tiling(F2x2_3x3, 3, 8, 1) // 4×4 = 16 tiles
	f25 := tiling(F2x2_5x5, 5, 8, 2)   // T = 6, 16 tiles
	f43 := tiling(F4x4_3x3, 3, 16, 1)  // T = 6, 16 tiles
	cases := []struct {
		name  string
		d, o  *Domain
		parts []string
	}{
		{"channels", newDomain(small, 1, 1), newDomain(small, 1, 2), []string{"C=1", "C=2"}},
		{"batch", newDomain(small, 1, 1), newDomain(small, 2, 1), []string{"B=1", "B=2"}},
		{"16 tiles into 4", newDomain(small, 1, 1), newDomain(large, 1, 1), []string{"2x2 tiles", "4x4 tiles"}},
		{"4 tiles into 16", newDomain(large, 1, 1), newDomain(small, 1, 1), []string{"2x2 tiles", "4x4 tiles"}},
		{"F(4x4,3x3) into F(2x2,5x5)", newDomain(f25, 1, 3), newDomain(f43, 1, 3), []string{"F(2x2,5x5)", "F(4x4,3x3)"}},
	}
	for _, c := range cases {
		requirePanicNaming(t, c.name, func() { c.d.AddDomain(c.o) }, c.parts...)
	}
}

// TestWeightsAXPYShapeMismatchPanics: the SGD update rejects a gradient of
// another shape, naming both, instead of writing a wrong update.
func TestWeightsAXPYShapeMismatchPanics(t *testing.T) {
	cases := []struct {
		name  string
		w, o  *Weights
		parts []string
	}{
		{"4x4 channels into 2x2", NewWeights(F2x2_3x3, 2, 2), NewWeights(F2x2_3x3, 4, 4), []string{"2x2 channels", "4x4 channels"}},
		{"2x2 channels into 4x4", NewWeights(F2x2_3x3, 4, 4), NewWeights(F2x2_3x3, 2, 2), []string{"2x2 channels", "4x4 channels"}},
		{"1x3 into 3x1", NewWeights(F2x2_3x3, 3, 1), NewWeights(F2x2_3x3, 1, 3), []string{"3x1 channels", "1x3 channels"}},
		{"F(4x4,3x3) into F(2x2,5x5)", NewWeights(F2x2_5x5, 2, 3), NewWeights(F4x4_3x3, 2, 3), []string{"F(2x2,5x5)", "F(4x4,3x3)"}},
	}
	for _, c := range cases {
		requirePanicNaming(t, c.name, func() { c.w.AXPY(-0.5, c.o) }, c.parts...)
	}
	// A gradient of the same shape still applies.
	w, g := NewWeights(F2x2_3x3, 2, 3), NewWeights(F2x2_3x3, 2, 3)
	w.El[5].Data[4], g.El[5].Data[4] = 1, 4
	w.AXPY(-0.5, g)
	if got := w.El[5].Data[4]; got != -1 {
		t.Fatalf("AXPY gave %v, want -1", got)
	}
}

// TestFprop1DMatchesDirect validates the 1-D Winograd path (the paper's
// F(2,3) with 4×1 tiles for 3×1 weights) against direct correlation.
func TestFprop1DMatchesDirect(t *testing.T) {
	rng := tensor.NewRNG(67)
	cases := []Params1D{
		{In: 3, Out: 4, K: 3, Pad: 1, L: 16},
		{In: 2, Out: 2, K: 3, Pad: 1, L: 15}, // partial edge tile
		{In: 1, Out: 3, K: 3, Pad: 0, L: 12},
		{In: 2, Out: 1, K: 5, Pad: 2, L: 14}, // F(2,5)
	}
	for ci, p := range cases {
		tr := F2_3
		if p.K == 5 {
			tr = F2x2_5x5 // same 1-D matrices apply per row
		}
		x := tensor.New(2, p.In, 1, p.L)
		w := tensor.New(p.Out, p.In, 1, p.K)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(w, 0, 0.5)
		want := DirectFprop1D(p, x, w)
		got := Fprop1D(tr, p, x, w)
		if d := got.MaxAbsDiff(want); d > 1e-3 {
			t.Fatalf("case %d: 1-D fprop maxdiff %v", ci, d)
		}
	}
}

func TestParams1DValidate(t *testing.T) {
	bad := []Params1D{
		{In: 0, Out: 1, K: 3, Pad: 1, L: 8},
		{In: 1, Out: 1, K: 0, Pad: 1, L: 8},
		{In: 1, Out: 1, K: 3, Pad: -1, L: 8},
		{In: 1, Out: 1, K: 9, Pad: 0, L: 4},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad 1-D params %d accepted", i)
		}
	}
	if err := (Params1D{In: 1, Out: 1, K: 3, Pad: 1, L: 8}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewTiling1DMismatch(t *testing.T) {
	if _, err := newTiling1D(F2_3, Params1D{In: 1, Out: 1, K: 5, Pad: 2, L: 8}); err == nil {
		t.Fatal("1-D kernel/transform mismatch accepted")
	}
}
