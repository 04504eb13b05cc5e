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

// The four tile transforms below run with channels as the inner lane.
// Every tile transform has the form S·x·Sᵀ: stage 1 combines the rows of
// a tile (S·x), stage 2 its columns (·Sᵀ). The per-tile formulation — the
// test oracle in oracle_test.go — extracts one T×T tile per (image,
// channel, tile) and runs both stages on it, the second as a
// latency-bound scalar chain per value. Here a whole image is handled at
// once, in an H×W×C layout where the C values of one spatial position are
// contiguous:
//
//   - Forward (TransformInput, TransformOutputGrad): the image is packed
//     once into a zero-padded buffer covering every tile. Stage 1 runs per
//     tile row across the whole padded row (Sched.MulInto), so the
//     overlapping input tiles share it; stage 2 then runs per tile, one
//     tensor.SchedRowInto call per output over C-long vectors, written
//     straight into each element matrix's contiguous (row, 0..C) slot.
//   - Inverse (InverseOutput, InverseInputGrad): a tile's T² element rows
//     are gathered into a T×T×C block, both stages run over the C lanes,
//     and the result is stored — overlapping dx tiles accumulated in tile
//     order into a padded buffer.
//
// Bit identity with the oracle: every output value is computed from the
// same addends (the schedule's nonzero terms, ascending k), in the same
// order, from the same +0 start — only the loop nest around the chains
// changes. Both stages here run on tensor.SchedRowInto, whose chain per
// lane is one multiply and one add per term on every tier (the Go loop of
// the portable and sse2 tiers turns c = ±1 into a plain add or subtract);
// the oracle's stage-2 MulTInto multiplies by c. These round identically:
// 1·v and −1·v are exact, and x − v is x + (−v). Zero taps are +0 in both
// (padding, partial edge tiles), and dx slots receive their tile
// contributions in the oracle's (th, tw) order starting from +0.

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
	tl.checkDomain(d, x.N, x.C)
	// Images are independent tile batches: fan them out. Each image writes
	// its own rows of every element matrix, so the parallel result is
	// bit-identical to the sequential loop.
	if sc.Workers() == 1 {
		for b := 0; b < x.N; b++ {
			tl.transformInputImage(d, x, sc.slot(0), b)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), x.N, func(w, b int) {
		tl.transformInputImage(d, x, sc.slot(w), b)
	})
}

// checkDomain panics unless d is a Domain of this tiling's element count
// for b images of c channels.
func (tl *Tiling) checkDomain(d *Domain, b, c int) {
	if d.B != b || d.C != c || len(d.El) != tl.Tr.T*tl.Tr.T || d.Tiling.Tiles() != tl.Tiles() {
		panic(fmt.Sprintf("winograd: domain B=%d C=%d with %d elements for %d images of %d channels under %s",
			d.B, d.C, len(d.El), b, c, tl.Tr))
	}
}

// padIn returns the padded input extent (rows, columns) the input tiles
// cover: tile (th, tw) reads rows th·m … th·m+T−1 of it.
func (tl *Tiling) padIn() (int, int) {
	m, t := tl.Tr.M, tl.Tr.T
	return (tl.TilesH-1)*m + t, (tl.TilesW-1)*m + t
}

// packImage writes image b of x into dst as a zero-filled H×W×C buffer of
// row width wp, with the image's top-left value at (off, off).
func packImage(dst []float32, x *tensor.Tensor, b, off, wp int) {
	for i := range dst {
		dst[i] = 0
	}
	c, plane := x.C, x.H*x.W
	img := x.Data[b*c*plane : (b+1)*c*plane]
	for ch := 0; ch < c; ch++ {
		src := img[ch*plane : (ch+1)*plane]
		for ih := 0; ih < x.H; ih++ {
			o := ((ih+off)*wp+off)*c + ch
			for _, v := range src[ih*x.W : (ih+1)*x.W] {
				dst[o] = v
				o += c
			}
		}
	}
}

// forwardImage runs a forward tile transform with schedule s (of S, T×k)
// over one packed image: for each tile row, stage 1 over the k padded rows
// it reads, then stage 2 per tile into the element matrices. rs is the
// padded row stride in floats (row width · C).
func (tl *Tiling) forwardImage(d *Domain, s *Sched, pad, stage []float32, rs, b int) {
	t, m, c := tl.Tr.T, tl.Tr.M, d.C
	base := b * tl.Tiles()
	for th := 0; th < tl.TilesH; th++ {
		s.MulInto(stage, pad[th*m*rs:], rs)
		for tw := 0; tw < tl.TilesW; tw++ {
			off := (base + th*tl.TilesW + tw) * c
			for i := 0; i < t; i++ {
				src := stage[i*rs+tw*m*c:]
				for j, terms := range s.rows {
					tensor.SchedRowInto(d.El[i*t+j].Data[off:off+c], terms, src, c)
				}
			}
		}
	}
}

func (tl *Tiling) transformInputImage(d *Domain, x *tensor.Tensor, sl *scratchSlot, b int) {
	hp, wp := tl.padIn()
	rs := wp * x.C
	a := &sl.arena
	a.Reset()
	pad := a.Floats(hp * rs)
	stage := a.Floats(tl.Tr.T * rs)
	packImage(pad, x, b, tl.P.Pad, wp)
	tl.forwardImage(d, tl.Tr.fused.bt, pad, stage, rs, b)
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
	tl.checkDomain(d, dy.N, dy.C)
	if sc.Workers() == 1 {
		for b := 0; b < dy.N; b++ {
			tl.transformOutputGradImage(d, dy, sc.slot(0), b)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), dy.N, func(w, b int) {
		tl.transformOutputGradImage(d, dy, sc.slot(w), b)
	})
}

func (tl *Tiling) transformOutputGradImage(d *Domain, dy *tensor.Tensor, sl *scratchSlot, b int) {
	// Output tiles do not overlap; the padding only completes the partial
	// tiles at the bottom and right edges with zeros.
	m := tl.Tr.M
	hq, wq := tl.TilesH*m, tl.TilesW*m
	rs := wq * dy.C
	a := &sl.arena
	a.Reset()
	pad := a.Floats(hq * rs)
	stage := a.Floats(tl.Tr.T * rs)
	packImage(pad, dy, b, 0, wq)
	tl.forwardImage(d, tl.Tr.fused.a, pad, stage, rs, b)
}

// inverseTile runs an inverse tile transform with schedule s (of S, r×T)
// on tile row `row` of d: it gathers the T² element rows into tile
// (T×T×C), runs stage 1 into stage (r×T×C) and stage 2 into out (r×r×C).
func inverseTile(d *Domain, s *Sched, row int, tile, stage, out []float32) {
	t, c := d.Tiling.Tr.T, d.C
	off := row * c
	for e, el := range d.El {
		copy(tile[e*c:(e+1)*c], el.Data[off:off+c])
	}
	s.MulInto(stage, tile, t*c)
	r := len(s.rows)
	for i := 0; i < r; i++ {
		src := stage[i*t*c:]
		for j, terms := range s.rows {
			tensor.SchedRowInto(out[(i*r+j)*c:(i*r+j+1)*c], terms, src, c)
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
	if y.N != d.B || y.C != d.C || y.H != tl.P.OutH() || y.W != tl.P.OutW() {
		panic(fmt.Sprintf("winograd: output %s for a %d-image %d-channel domain of output %dx%d",
			y.ShapeString(), d.B, d.C, tl.P.OutH(), tl.P.OutW()))
	}
	// Output tiles never overlap and images own disjoint y regions, so the
	// batch dimension shards freely with bit-identical results.
	if sc.Workers() == 1 {
		for b := 0; b < d.B; b++ {
			tl.inverseOutputImage(y, d, sc.slot(0), b)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), d.B, func(w, b int) {
		tl.inverseOutputImage(y, d, sc.slot(w), b)
	})
}

func (tl *Tiling) inverseOutputImage(y *tensor.Tensor, d *Domain, sl *scratchSlot, b int) {
	t, m, c := tl.Tr.T, tl.Tr.M, d.C
	a := &sl.arena
	a.Reset()
	tile := a.Floats(t * t * c)
	stage := a.Floats(m * t * c)
	out := a.Floats(m * m * c)
	oh, ow := y.H, y.W
	plane := oh * ow
	img := y.Data[b*c*plane : (b+1)*c*plane]
	for th := 0; th < tl.TilesH; th++ {
		for tw := 0; tw < tl.TilesW; tw++ {
			inverseTile(d, tl.Tr.fused.at, d.row(b, th, tw), tile, stage, out)
			for i := 0; i < m && th*m+i < oh; i++ {
				for j := 0; j < m && tw*m+j < ow; j++ {
					p := (th*m+i)*ow + tw*m + j
					for ch, v := range out[(i*m+j)*c : (i*m+j+1)*c] {
						img[ch*plane+p] = v
					}
				}
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

// InverseInputGradInto is InverseInputGrad into a caller-owned gradient
// tensor with caller-owned scratch. dx is overwritten, so the Into form
// has the same semantics as the allocating wrapper.
func (tl *Tiling) InverseInputGradInto(dx *tensor.Tensor, d *Domain, sc *Scratch) {
	if dx.N != d.B || dx.C != d.C || dx.H != tl.P.H || dx.W != tl.P.W {
		panic(fmt.Sprintf("winograd: input gradient %s for a %d-image %d-channel domain of input %dx%d",
			dx.ShapeString(), d.B, d.C, tl.P.H, tl.P.W))
	}
	// Overlapping tiles only accumulate within one image; across images
	// the dx regions are disjoint, and the per-image tile order is fixed,
	// so the accumulation order per dx slot — and with it the
	// floating-point result — is identical to the sequential loop.
	if sc.Workers() == 1 {
		for b := 0; b < d.B; b++ {
			tl.inverseInputGradImage(dx, d, sc.slot(0), b)
		}
		return
	}
	parallel.ForEachWorker(sc.Workers(), d.B, func(w, b int) {
		tl.inverseInputGradImage(dx, d, sc.slot(w), b)
	})
}

func (tl *Tiling) inverseInputGradImage(dx *tensor.Tensor, d *Domain, sl *scratchSlot, b int) {
	t, m, c := tl.Tr.T, tl.Tr.M, d.C
	hp, wp := tl.padIn()
	rs := wp * c
	a := &sl.arena
	a.Reset()
	acc := a.Floats(hp * rs)
	tile := a.Floats(t * t * c)
	stage := a.Floats(t * t * c)
	out := a.Floats(t * t * c)
	for i := range acc {
		acc[i] = 0
	}
	for th := 0; th < tl.TilesH; th++ {
		for tw := 0; tw < tl.TilesW; tw++ {
			inverseTile(d, tl.Tr.fused.b, d.row(b, th, tw), tile, stage, out)
			for i := 0; i < t; i++ {
				dst := acc[(th*m+i)*rs+tw*m*c : (th*m+i)*rs+(tw*m+t)*c]
				for k, v := range out[i*t*c : (i+1)*t*c] {
					dst[k] += v
				}
			}
		}
	}
	// Unpack the interior; the padding ring only absorbed the taps the
	// tiles read from outside the image.
	plane, pad := dx.H*dx.W, tl.P.Pad
	img := dx.Data[b*c*plane : (b+1)*c*plane]
	for ch := 0; ch < c; ch++ {
		dst := img[ch*plane : (ch+1)*plane]
		for ih := 0; ih < dx.H; ih++ {
			o := ((ih+pad)*wp+pad)*c + ch
			for iw := range dst[ih*dx.W : (ih+1)*dx.W] {
				dst[ih*dx.W+iw] = acc[o]
				o += c
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

// AddDomain accumulates o into d elementwise. Shapes must match — the
// transform size, tile grid, batch and channels — or it panics naming
// both; this is the paper's modified join operation (mean of
// Winograd-domain tiles, Fig. 14) before the final Scale(1/n).
func (d *Domain) AddDomain(o *Domain) {
	a, b := d.Tiling, o.Tiling
	if a.Tr.M != b.Tr.M || a.Tr.R != b.Tr.R || a.TilesH != b.TilesH || a.TilesW != b.TilesW ||
		d.B != o.B || d.C != o.C || len(d.El) != len(o.El) {
		panic(fmt.Sprintf("winograd: AddDomain of a %s into a %s", o.shape(), d.shape()))
	}
	for e := range d.El {
		for i := range d.El[e].Data {
			d.El[e].Data[i] += o.El[e].Data[i]
		}
	}
}

// shape describes d's shape for panic messages.
func (d *Domain) shape() string {
	tl := d.Tiling
	return fmt.Sprintf("%s domain of %dx%d tiles, B=%d C=%d", tl.Tr, tl.TilesH, tl.TilesW, d.B, d.C)
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
// Winograd domain). Shapes must match — the transform size and the
// channels — or it panics naming both.
func (w *Weights) AXPY(alpha float32, o *Weights) {
	if w.Tr.M != o.Tr.M || w.Tr.R != o.Tr.R || w.In != o.In || w.Out != o.Out || len(w.El) != len(o.El) {
		panic(fmt.Sprintf("winograd: AXPY of %s into %s", o.shape(), w.shape()))
	}
	for e := range w.El {
		for i := range w.El[e].Data {
			w.El[e].Data[i] += alpha * o.El[e].Data[i]
		}
	}
}

// shape describes w's shape for panic messages.
func (w *Weights) shape() string {
	return fmt.Sprintf("%s weights of %dx%d channels", w.Tr, w.In, w.Out)
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
