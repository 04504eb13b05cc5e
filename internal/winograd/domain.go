package winograd

import (
	"fmt"

	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
)

// Domain is a batch of feature maps represented entirely in the Winograd
// domain: for each of the T² tile-element positions (u,v) there is one
// (B·tiles)×C matrix. This layout makes the paper's central observation
// concrete — the dot products decompose into T² independent matrix
// multiplications (Fig. 3(b)), one per element, with no computation between
// different elements. MPT partitions exactly this El slice across groups.
type Domain struct {
	Tiling *Tiling
	B      int           // batch size
	C      int           // channels
	El     []*tensor.Mat // length T²; each (B·tiles)×C
}

// Rows returns B·tiles, the row count of each element matrix.
func (d *Domain) Rows() int { return d.B * d.Tiling.Tiles() }

// TileInto gathers the T×T Winograd-domain tile at (row, channel c) —
// element e of the tile is El[e].At(row, c) — into dst.
//
//mptlint:noalloc
func (d *Domain) TileInto(dst *tensor.Mat, row, c int) {
	if len(dst.Data) != len(d.El) {
		panic(fmt.Sprintf("winograd: %d-element tile for a %d-element domain", len(dst.Data), len(d.El)))
	}
	off := row*d.C + c
	for e, el := range d.El {
		dst.Data[e] = el.Data[off]
	}
}

// NewDomain allocates an all-zero Domain for the given tiling — the
// reusable destination of the Into transform/multiply entry points below.
func NewDomain(tl *Tiling, b, c int) *Domain {
	t2 := tl.Tr.T * tl.Tr.T
	d := &Domain{Tiling: tl, B: b, C: c, El: make([]*tensor.Mat, t2)}
	rows := b * tl.Tiles()
	for e := range d.El {
		d.El[e] = tensor.NewMat(rows, c)
	}
	return d
}

func newDomain(tl *Tiling, b, c int) *Domain { return NewDomain(tl, b, c) }

// row returns the element-matrix row index of (image b, tile th, tw).
func (d *Domain) row(b, th, tw int) int {
	return (b*d.Tiling.TilesH+th)*d.Tiling.TilesW + tw
}

// TransformInput lifts a spatial input tensor x (B,C,H,W matching the
// tiling's layer geometry) into the Winograd domain: X = Bᵀ·x·B per tile.
func (tl *Tiling) TransformInput(x *tensor.Tensor) *Domain {
	d := newDomain(tl, x.N, x.C)
	tl.TransformInputInto(d, x, NewScratch())
	return d
}

// TransformInputInto is TransformInput writing into a caller-owned Domain
// with caller-owned scratch; steady-state calls do not allocate.
func (tl *Tiling) TransformInputInto(d *Domain, x *tensor.Tensor, sc *Scratch) {
	if x.C != tl.P.In || x.H != tl.P.H || x.W != tl.P.W {
		panic(fmt.Sprintf("winograd: input shape %s does not match layer I=%d %dx%d",
			x.ShapeString(), tl.P.In, tl.P.H, tl.P.W))
	}
	// Images are independent tile batches: fan them out. Each (b, c, tile)
	// writes a distinct (row, c) slot of every element matrix, so the
	// parallel result is bit-identical to the sequential loop.
	if sc.Workers() == 1 {
		for b := 0; b < x.N; b++ {
			tl.transformInputItem(d, x, sc.slot(0), b)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), x.N, func(w, b int) {
		tl.transformInputItem(d, x, sc.slot(w), b)
	})
}

func (tl *Tiling) transformInputItem(d *Domain, x *tensor.Tensor, sl *scratchSlot, b int) {
	t := tl.Tr.T
	a := &sl.arena
	a.Reset()
	patch := a.Mat(t, t)
	w := a.Mat(t, t)
	tmp := a.Floats(tl.Tr.TmpLen())
	for c := 0; c < x.C; c++ {
		for th := 0; th < tl.TilesH; th++ {
			for tw := 0; tw < tl.TilesW; tw++ {
				tl.ExtractInputTile(patch, x, b, c, th, tw)
				tl.Tr.InputToWinogradInto(w, patch, tmp)
				row := d.row(b, th, tw)
				for e, v := range w.Data {
					d.El[e].Set(row, c, v)
				}
			}
		}
	}
}

// TransformOutputGrad lifts a spatial output-gradient tensor dy into the
// Winograd domain via the adjoint of the inverse output transform:
// dY = A·dy·Aᵀ per tile.
func (tl *Tiling) TransformOutputGrad(dy *tensor.Tensor) *Domain {
	d := newDomain(tl, dy.N, dy.C)
	tl.TransformOutputGradInto(d, dy, NewScratch())
	return d
}

// TransformOutputGradInto is TransformOutputGrad into a caller-owned
// Domain with caller-owned scratch.
func (tl *Tiling) TransformOutputGradInto(d *Domain, dy *tensor.Tensor, sc *Scratch) {
	if dy.H != tl.P.OutH() || dy.W != tl.P.OutW() {
		panic(fmt.Sprintf("winograd: dy shape %s does not match output %dx%d",
			dy.ShapeString(), tl.P.OutH(), tl.P.OutW()))
	}
	if sc.Workers() == 1 {
		for b := 0; b < dy.N; b++ {
			tl.transformOutputGradItem(d, dy, sc.slot(0), b)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), dy.N, func(w, b int) {
		tl.transformOutputGradItem(d, dy, sc.slot(w), b)
	})
}

func (tl *Tiling) transformOutputGradItem(d *Domain, dy *tensor.Tensor, sl *scratchSlot, b int) {
	m := tl.Tr.M
	a := &sl.arena
	a.Reset()
	patch := a.Mat(m, m)
	w := a.Mat(tl.Tr.T, tl.Tr.T)
	tmp := a.Floats(tl.Tr.TmpLen())
	for c := 0; c < dy.C; c++ {
		for th := 0; th < tl.TilesH; th++ {
			for tw := 0; tw < tl.TilesW; tw++ {
				tl.ExtractOutputTile(patch, dy, b, c, th, tw)
				tl.Tr.OutputToWinogradInto(w, patch, tmp)
				row := d.row(b, th, tw)
				for e, v := range w.Data {
					d.El[e].Set(row, c, v)
				}
			}
		}
	}
}

// InverseOutput gathers a Winograd-domain output y-Domain into the spatial
// output tensor: y = Aᵀ·Y·A per tile. This is the tile-gathering step whose
// communication MPT must pay for (Section III-C).
func (tl *Tiling) InverseOutput(d *Domain) *tensor.Tensor {
	y := tensor.New(d.B, d.C, tl.P.OutH(), tl.P.OutW())
	tl.InverseOutputInto(y, d, NewScratch())
	return y
}

// InverseOutputInto is InverseOutput into a caller-owned output tensor
// with caller-owned scratch.
func (tl *Tiling) InverseOutputInto(y *tensor.Tensor, d *Domain, sc *Scratch) {
	// Output tiles never overlap and images own disjoint y regions, so the
	// batch dimension shards freely with bit-identical results.
	if sc.Workers() == 1 {
		for b := 0; b < d.B; b++ {
			tl.inverseOutputItem(y, d, sc.slot(0), b)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), d.B, func(w, b int) {
		tl.inverseOutputItem(y, d, sc.slot(w), b)
	})
}

func (tl *Tiling) inverseOutputItem(y *tensor.Tensor, d *Domain, sl *scratchSlot, b int) {
	t := tl.Tr.T
	a := &sl.arena
	a.Reset()
	tile := a.Mat(t, t)
	out := a.Mat(tl.Tr.M, tl.Tr.M)
	tmp := a.Floats(tl.Tr.TmpLen())
	for c := 0; c < d.C; c++ {
		for th := 0; th < tl.TilesH; th++ {
			for tw := 0; tw < tl.TilesW; tw++ {
				row := d.row(b, th, tw)
				for e := range d.El {
					tile.Data[e] = d.El[e].At(row, c)
				}
				tl.Tr.OutputFromWinogradInto(out, tile, tmp)
				tl.ScatterOutputTile(y, out, b, c, th, tw)
			}
		}
	}
}

// InverseInputGrad maps a Winograd-domain input-gradient Domain back to the
// spatial domain via the adjoint of the input transform, accumulating
// overlapping tile contributions: dx += B·dX·Bᵀ.
func (tl *Tiling) InverseInputGrad(d *Domain) *tensor.Tensor {
	dx := tensor.New(d.B, d.C, tl.P.H, tl.P.W)
	tl.InverseInputGradInto(dx, d, NewScratch())
	return dx
}

// InverseInputGradInto is InverseInputGrad into a caller-owned (zeroed)
// gradient tensor with caller-owned scratch. dx is cleared first, so the
// Into form has the same semantics as the allocating wrapper.
func (tl *Tiling) InverseInputGradInto(dx *tensor.Tensor, d *Domain, sc *Scratch) {
	dx.Zero()
	// Overlapping tiles only accumulate within one (b, c) feature map;
	// across images the dx regions are disjoint, and the per-image tile
	// order is unchanged, so the accumulation order per dx slot — and with
	// it the floating-point result — is identical to the sequential loop.
	if sc.Workers() == 1 {
		for b := 0; b < d.B; b++ {
			tl.inverseInputGradItem(dx, d, sc.slot(0), b)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), d.B, func(w, b int) {
		tl.inverseInputGradItem(dx, d, sc.slot(w), b)
	})
}

func (tl *Tiling) inverseInputGradItem(dx *tensor.Tensor, d *Domain, sl *scratchSlot, b int) {
	t := tl.Tr.T
	a := &sl.arena
	a.Reset()
	tile := a.Mat(t, t)
	out := a.Mat(t, t)
	tmp := a.Floats(tl.Tr.TmpLen())
	for c := 0; c < d.C; c++ {
		for th := 0; th < tl.TilesH; th++ {
			for tw := 0; tw < tl.TilesW; tw++ {
				row := d.row(b, th, tw)
				for e := range d.El {
					tile.Data[e] = d.El[e].At(row, c)
				}
				tl.Tr.InputFromWinogradInto(out, tile, tmp)
				tl.ScatterAddInputTile(dx, out, b, c, th, tw)
			}
		}
	}
}

// Scale multiplies every element of the Domain by alpha in place and
// returns d for chaining.
func (d *Domain) Scale(alpha float32) *Domain {
	for _, el := range d.El {
		for i := range el.Data {
			el.Data[i] *= alpha
		}
	}
	return d
}

// AddDomain accumulates o into d elementwise. Shapes must match; this is
// the paper's modified join operation (mean of Winograd-domain tiles,
// Fig. 14) before the final Scale(1/n).
func (d *Domain) AddDomain(o *Domain) {
	if d.B != o.B || d.C != o.C || len(d.El) != len(o.El) {
		panic(fmt.Sprintf("winograd: AddDomain shape mismatch B=%d/%d C=%d/%d", d.B, o.B, d.C, o.C))
	}
	for e := range d.El {
		for i := range d.El[e].Data {
			d.El[e].Data[i] += o.El[e].Data[i]
		}
	}
}

// AddOutputBias shifts every spatial-domain neuron that this output Domain
// inverse-transforms to by exactly bias, by adding the lifted constant
// tile to every (tile, channel) position.
func (d *Domain) AddOutputBias(bias float32) {
	l := d.Tiling.Tr.LiftOutputBias(bias)
	for e := range d.El {
		for i := range d.El[e].Data {
			d.El[e].Data[i] += l.Data[e]
		}
	}
}

// Clone returns a deep copy of the Domain.
func (d *Domain) Clone() *Domain {
	out := newDomain(d.Tiling, d.B, d.C)
	for e := range d.El {
		copy(out.El[e].Data, d.El[e].Data)
	}
	return out
}

// Weights is a full set of layer weights in the Winograd domain: for each
// tile element (u,v), an In×Out matrix W^{(u,v)} (paper eq. 2). The paper's
// Winograd layer stores and updates these directly; MPT assigns each group
// only its own subset of elements ("each part of the Winograd domain
// weights is only used within the associated group").
type Weights struct {
	Tr      *Transform
	In, Out int
	El      []*tensor.Mat // length T²; each In×Out
}

// NewWeights allocates zero Winograd-domain weights.
func NewWeights(tr *Transform, in, out int) *Weights {
	t2 := tr.T * tr.T
	w := &Weights{Tr: tr, In: in, Out: out, El: make([]*tensor.Mat, t2)}
	for e := range w.El {
		w.El[e] = tensor.NewMat(in, out)
	}
	return w
}

// TransformWeights lifts spatial weights (Out,In,r,r) into the Winograd
// domain: W = G·w·Gᵀ per (i,j) filter.
func TransformWeights(tr *Transform, w *tensor.Tensor) *Weights {
	ww := NewWeights(tr, w.C, w.N)
	TransformWeightsInto(ww, tr, w, NewScratch())
	return ww
}

// TransformWeightsInto is TransformWeights into caller-owned Weights with
// caller-owned scratch.
func TransformWeightsInto(ww *Weights, tr *Transform, w *tensor.Tensor, sc *Scratch) {
	if w.H != tr.R || w.W != tr.R {
		panic(fmt.Sprintf("winograd: weight shape %s does not match transform %s", w.ShapeString(), tr))
	}
	// Each (i, j) filter writes its own column slot in every element matrix.
	if sc.Workers() == 1 {
		for j := 0; j < w.N; j++ {
			transformWeightsItem(ww, tr, w, sc.slot(0), j)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), w.N, func(wk, j int) {
		transformWeightsItem(ww, tr, w, sc.slot(wk), j)
	})
}

func transformWeightsItem(ww *Weights, tr *Transform, w *tensor.Tensor, sl *scratchSlot, j int) {
	a := &sl.arena
	a.Reset()
	f := a.Mat(tr.R, tr.R)
	wd := a.Mat(tr.T, tr.T)
	tmp := a.Floats(tr.TmpLen())
	for i := 0; i < w.C; i++ {
		for kh := 0; kh < tr.R; kh++ {
			for kw := 0; kw < tr.R; kw++ {
				f.Set(kh, kw, w.At(j, i, kh, kw))
			}
		}
		tr.FilterToWinogradInto(wd, f, tmp)
		for e, v := range wd.Data {
			ww.El[e].Set(i, j, v)
		}
	}
}

// ToSpatialGrad maps Winograd-domain weight gradients back to spatial
// weight gradients: dw = Gᵀ·dW·G per filter. Used by the Fig. 2(a) mode
// where spatial weights are the trained parameters.
func (w *Weights) ToSpatialGrad() *tensor.Tensor {
	out := tensor.New(w.Out, w.In, w.Tr.R, w.Tr.R)
	w.ToSpatialGradInto(out, NewScratch())
	return out
}

// ToSpatialGradInto is ToSpatialGrad into a caller-owned tensor with
// caller-owned scratch.
func (w *Weights) ToSpatialGradInto(out *tensor.Tensor, sc *Scratch) {
	if sc.Workers() == 1 {
		for j := 0; j < w.Out; j++ {
			w.toSpatialGradItem(out, sc.slot(0), j)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), w.Out, func(wk, j int) {
		w.toSpatialGradItem(out, sc.slot(wk), j)
	})
}

func (w *Weights) toSpatialGradItem(out *tensor.Tensor, sl *scratchSlot, j int) {
	tr := w.Tr
	a := &sl.arena
	a.Reset()
	tile := a.Mat(tr.T, tr.T)
	g := a.Mat(tr.R, tr.R)
	tmp := a.Floats(tr.TmpLen())
	for i := 0; i < w.In; i++ {
		for e := range w.El {
			tile.Data[e] = w.El[e].At(i, j)
		}
		tr.FilterFromWinogradInto(g, tile, tmp)
		for kh := 0; kh < tr.R; kh++ {
			for kw := 0; kw < tr.R; kw++ {
				out.Set(j, i, kh, kw, g.At(kh, kw))
			}
		}
	}
}

// Clone returns a deep copy of the weights.
func (w *Weights) Clone() *Weights {
	out := NewWeights(w.Tr, w.In, w.Out)
	for e := range w.El {
		copy(out.El[e].Data, w.El[e].Data)
	}
	return out
}

// AXPY accumulates alpha·o into w elementwise (the SGD update in the
// Winograd domain).
func (w *Weights) AXPY(alpha float32, o *Weights) {
	for e := range w.El {
		for i := range w.El[e].Data {
			w.El[e].Data[i] += alpha * o.El[e].Data[i]
		}
	}
}

// Bytes returns the Winograd-domain weight storage size |W| in bytes.
func (w *Weights) Bytes() int64 {
	return int64(len(w.El)) * int64(w.In) * int64(w.Out) * 4
}

// MulForward computes Y = X·W per element: the T² independent matrix
// multiplications of fprop. elements selects which tile elements to
// compute (nil = all), which is how MPT restricts a worker to its group's
// elements.
func MulForward(x *Domain, w *Weights, elements []int) *Domain {
	y := newDomain(x.Tiling, x.B, w.Out)
	// The T² element GEMMs are fully independent (the paper's Fig. 3(b)
	// decomposition), so they are the natural parallel grain here.
	n := elemCount(len(x.El), elements)
	parallel.ForEach(0, n, func(i int) {
		e := elemAt(elements, i)
		tensor.MatMulInto(y.El[e], x.El[e], w.El[e])
	})
	return y
}

// MulForwardInto is MulForward writing the selected elements of a
// caller-owned Domain, with per-worker GEMM packing scratch.
func MulForwardInto(y, x *Domain, w *Weights, elements []int, sc *Scratch) {
	n := elemCount(len(x.El), elements)
	if sc.Workers() == 1 {
		sl := sc.slot(0)
		for i := 0; i < n; i++ {
			e := elemAt(elements, i)
			tensor.MatMulIntoScratch(y.El[e], x.El[e], w.El[e], &sl.gemm)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), n, func(wk, i int) {
		e := elemAt(elements, i)
		tensor.MatMulIntoScratch(y.El[e], x.El[e], w.El[e], &sc.slot(wk).gemm)
	})
}

// MulBackward computes dX = dY·Wᵀ per element: the bprop dot products.
// The transposed-operand GEMM consumes W in place — no Wᵀ is ever
// materialized.
func MulBackward(dy *Domain, w *Weights, elements []int) *Domain {
	dx := newDomain(dy.Tiling, dy.B, w.In)
	n := elemCount(len(dy.El), elements)
	parallel.ForEach(0, n, func(i int) {
		e := elemAt(elements, i)
		tensor.MatMulNTInto(dx.El[e], dy.El[e], w.El[e])
	})
	return dx
}

// MulBackwardInto is MulBackward into a caller-owned Domain with
// per-worker GEMM packing scratch.
func MulBackwardInto(dx, dy *Domain, w *Weights, elements []int, sc *Scratch) {
	n := elemCount(len(dy.El), elements)
	if sc.Workers() == 1 {
		sl := sc.slot(0)
		for i := 0; i < n; i++ {
			e := elemAt(elements, i)
			tensor.MatMulNTIntoScratch(dx.El[e], dy.El[e], w.El[e], &sl.gemm)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), n, func(wk, i int) {
		e := elemAt(elements, i)
		tensor.MatMulNTIntoScratch(dx.El[e], dy.El[e], w.El[e], &sc.slot(wk).gemm)
	})
}

// MulGrad computes dW = Xᵀ·dY per element: the updateGrad dot products in
// the Winograd domain (Fig. 2(b), update-W). The transposed-operand GEMM
// consumes X in place — no Xᵀ is ever materialized.
func MulGrad(x, dy *Domain, elements []int) *Weights {
	dw := NewWeights(x.Tiling.Tr, x.C, dy.C)
	n := elemCount(len(x.El), elements)
	parallel.ForEach(0, n, func(i int) {
		e := elemAt(elements, i)
		tensor.MatMulTNInto(dw.El[e], x.El[e], dy.El[e])
	})
	return dw
}

// MulGradInto is MulGrad into caller-owned Weights with per-worker GEMM
// packing scratch.
func MulGradInto(dw *Weights, x, dy *Domain, elements []int, sc *Scratch) {
	n := elemCount(len(x.El), elements)
	if sc.Workers() == 1 {
		sl := sc.slot(0)
		for i := 0; i < n; i++ {
			e := elemAt(elements, i)
			tensor.MatMulTNIntoScratch(dw.El[e], x.El[e], dy.El[e], &sl.gemm)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), n, func(wk, i int) {
		e := elemAt(elements, i)
		tensor.MatMulTNIntoScratch(dw.El[e], x.El[e], dy.El[e], &sc.slot(wk).gemm)
	})
}

// elemAt resolves the i-th selected element index (nil selection = all).
func elemAt(elements []int, i int) int {
	if elements == nil {
		return i
	}
	return elements[i]
}

// elemCount returns the number of selected elements (nil selection = t2).
func elemCount(t2 int, elements []int) int {
	if elements == nil {
		return t2
	}
	return len(elements)
}

// GroupElements returns the tile-element indices owned by group g out of ng
// groups for a transform with tile size t (row-major (u,v) order). Elements
// are assigned in contiguous runs so that, when ng divides t, each group
// holds whole tile lines — the condition that enables the 1-D transform /
// 1-D predict optimization of Sections IV and V.
func GroupElements(t, ng, g int) []int {
	t2 := t * t
	if ng <= 0 || g < 0 || g >= ng {
		panic(fmt.Sprintf("winograd: bad group %d of %d", g, ng))
	}
	lo := g * t2 / ng
	hi := (g + 1) * t2 / ng
	out := make([]int, 0, hi-lo)
	for e := lo; e < hi; e++ {
		out = append(out, e)
	}
	return out
}

// HoldsWholeLines reports whether each group's element set under
// GroupElements consists of complete tile rows, enabling the 1-D transform
// optimization (true for the paper's 4-group configuration with T=4).
func HoldsWholeLines(t, ng int) bool {
	t2 := t * t
	if t2%ng != 0 {
		return false
	}
	per := t2 / ng
	return per%t == 0
}
