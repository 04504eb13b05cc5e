package mpt

import (
	"fmt"

	"mptwino/internal/ndp"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// workspace holds the buffers a pass's phased fan-out reuses from call to
// call: the pool workers' scratch slots, the whole-batch Winograd-domain
// staging the per-element products write, the ring all-reduce's
// partial-gradient buffers and its reduce block. A Net's engines run one
// at a time, so they share one workspace, which grows to the largest
// layer; a lone Engine owns its own.
//
// Everything is sized by reserve, outside the pass; the pass itself only
// re-fits the reserved storage to the running layer's shapes, which never
// allocates.
type workspace struct {
	// workers is the pool size, fixed when the workspace is first used
	// (0 until then), like a winograd.Scratch built under that setting.
	workers int
	slots   *winograd.Scratch     // one slot per pool worker
	splits  [][]*winograd.Scratch // splits[k-1]: the slots divided k ways

	out batchDomain // the forward output, or the backward pass's output gradient
	dx  batchDomain // the input gradient, reserved by the first pass that computes one

	ring     []float32     // per cluster: a full T²·In·Out partial dW, cluster-major
	partials []weightsView // per cluster: the partial dW over its ring region
	rb       *ndp.ReduceBlock
}

// clusterWorkers returns how many pool workers run a grid's nc
// per-cluster items at once: one per cluster, up to the pool size.
func (ws *workspace) clusterWorkers(nc int) int { return min(ws.workers, nc) }

// fanout returns the pool size of a pass's phased fan-out over nc
// per-cluster items and t2 per-element items (parallel.ForEachPhase).
func (ws *workspace) fanout(nc, t2 int) int { return parallel.Workers(ws.workers, max(nc, t2)) }

// clusterSlot returns which of the clusterWorkers(nc) scratch parts and
// predictors cluster c's item uses when pool worker w runs it. With no
// more clusters than pool workers every cluster has its own part, so the
// spare workers fan its kernels out; otherwise the fan-out's pool size is
// clusterWorkers(nc) and each worker owns a part.
func (ws *workspace) clusterSlot(nc, w, c int) int {
	if nc <= ws.workers {
		return c
	}
	return w
}

// clusterPart returns the scratch part of cluster c's item on worker w.
func (ws *workspace) clusterPart(nc, w, c int) *winograd.Scratch {
	return ws.splits[ws.clusterWorkers(nc)-1][ws.clusterSlot(nc, w, c)]
}

// elementPart returns the scratch part of a per-element product on pool
// worker w of a pass over nc clusters and t2 elements: one per worker.
func (ws *workspace) elementPart(nc, t2, w int) *winograd.Scratch {
	return ws.splits[ws.fanout(nc, t2)-1][w]
}

// split builds the k-way division of the slots on first use.
func (ws *workspace) split(k int) {
	if ws.splits[k-1] == nil {
		ws.splits[k-1] = ws.slots.Split(k)
	}
}

// reserve grows the workspace for e's forward and input-gradient passes
// over batch images. It builds the pool slots on first use.
func (ws *workspace) reserve(e *Engine, batch int) {
	if ws.workers == 0 {
		ws.workers = parallel.DefaultWorkers()
		ws.slots = winograd.NewScratch()
		ws.splits = make([][]*winograd.Scratch, ws.workers)
		ws.rb = ndp.NewReduceBlock(0, 2)
	}
	nc, t2 := e.Cfg.Nc, e.Tr.T*e.Tr.T
	ws.split(ws.clusterWorkers(nc))
	ws.split(ws.fanout(nc, t2))
	ws.out.reserve(t2, batch*e.tiling.Tiles()*e.P.Out, nc)
}

// reserveBprop grows the input-gradient staging for e's sized batch;
// forward-only use never pays for it.
func (ws *workspace) reserveBprop(e *Engine) {
	ws.dx.reserve(e.Tr.T*e.Tr.T, e.sizedBatch*e.tiling.Tiles()*e.P.In, e.Cfg.Nc)
}

// bpropFits reports whether reserveBprop has sized the input-gradient
// staging for e's sized batch under its current grid.
func (ws *workspace) bpropFits(e *Engine) bool {
	return ws.dx.fits(e.Tr.T*e.Tr.T, e.sizedBatch*e.tiling.Tiles()*e.P.In, e.Cfg.Nc)
}

// reserveUpdate grows the ring buffers and partial views for e's
// weight-gradient pass; forward-only use never pays for them.
func (ws *workspace) reserveUpdate(e *Engine) {
	nc, t2 := e.Cfg.Nc, e.Tr.T*e.Tr.T
	if n := nc * e.partialLen(); len(ws.ring) < n {
		ws.ring = make([]float32, n)
	}
	for len(ws.partials) < nc {
		ws.partials = append(ws.partials, weightsView{})
	}
	for c := 0; c < nc; c++ {
		ws.partials[c].reserve(t2)
	}
}

// updateFits reports whether reserveUpdate has sized the ring buffers and
// partial views for e's weight-gradient pass under its current grid.
func (ws *workspace) updateFits(e *Engine) bool {
	nc, t2 := e.Cfg.Nc, e.Tr.T*e.Tr.T
	if len(ws.ring) < nc*e.partialLen() || len(ws.partials) < nc {
		return false
	}
	for c := 0; c < nc; c++ {
		if len(ws.partials[c].set.mats) < t2 {
			return false
		}
	}
	return true
}

// matSet is the storage behind a Domain or Weights view: T² element-matrix
// headers that fit re-points over a flat buffer. It grows in reserve and
// is re-fitted, without allocating, to every layer it stages.
type matSet struct {
	el   []*tensor.Mat
	mats []tensor.Mat
}

func (s *matSet) reserve(t2 int) {
	if len(s.mats) < t2 {
		s.mats = make([]tensor.Mat, t2)
		s.el = make([]*tensor.Mat, t2)
	}
}

// fit returns t2 rows×cols element matrices laid out back to back in buf.
func (s *matSet) fit(buf []float32, t2, rows, cols int) []*tensor.Mat {
	n := rows * cols
	if len(s.mats) < t2 || len(buf) < t2*n {
		panic(fmt.Sprintf("mpt: %d element matrices of %dx%d exceed the reserved staging", t2, rows, cols))
	}
	for e := 0; e < t2; e++ {
		m := &s.mats[e]
		m.Rows, m.Cols, m.Data = rows, cols, buf[e*n:(e+1)*n]
		s.el[e] = m
	}
	return s.el[:t2]
}

// rowsOf returns views of rows [r0, r1) of every matrix in whole, sharing
// their storage.
func (s *matSet) rowsOf(whole []*tensor.Mat, r0, r1 int) []*tensor.Mat {
	if len(s.mats) < len(whole) {
		panic(fmt.Sprintf("mpt: %d element row views exceed the reserved %d", len(whole), len(s.mats)))
	}
	for e, w := range whole {
		m := &s.mats[e]
		m.Rows, m.Cols, m.Data = r1-r0, w.Cols, w.Data[r0*w.Cols:r1*w.Cols]
		s.el[e] = m
	}
	return s.el[:len(whole)]
}

// domainView is a reusable Domain over its own grow-only buffer.
type domainView struct {
	d   winograd.Domain
	set matSet
	buf []float32
}

// reserve makes room for t2 element matrices of n values each.
func (v *domainView) reserve(t2, n int) {
	v.set.reserve(t2)
	if len(v.buf) < t2*n {
		v.buf = make([]float32, t2*n)
	}
}

// fit shapes the view as tl's Domain of b images with c channels.
func (v *domainView) fit(tl *winograd.Tiling, b, c int) *winograd.Domain {
	t2 := tl.Tr.T * tl.Tr.T
	v.d = winograd.Domain{Tiling: tl, B: b, C: c, El: v.set.fit(v.buf, t2, b*tl.Tiles(), c)}
	return &v.d
}

// batchDomain is a whole-batch Domain with one row view per cluster: the
// clusters' shards are contiguous image ranges in batch order, so cluster
// c's view is one contiguous run of rows in every element matrix. The
// per-cluster transforms write the views, and one product per element
// reads or writes every cluster's rows at once.
type batchDomain struct {
	whole domainView
	rows  []rowsView // per cluster
}

// rowsView is a Domain over rows of another Domain's element matrices.
type rowsView struct {
	d   winograd.Domain
	set matSet
}

// reserve makes room for t2 element matrices of n values each, viewed by
// nc clusters.
func (b *batchDomain) reserve(t2, n, nc int) {
	b.whole.reserve(t2, n)
	for len(b.rows) < nc {
		b.rows = append(b.rows, rowsView{})
	}
	for c := 0; c < nc; c++ {
		b.rows[c].set.reserve(t2)
	}
}

// fits reports whether reserve has made room for t2 element matrices of n
// values each, viewed by nc clusters.
func (b *batchDomain) fits(t2, n, nc int) bool {
	if len(b.whole.buf) < t2*n || len(b.whole.set.mats) < t2 || len(b.rows) < nc {
		return false
	}
	for c := 0; c < nc; c++ {
		if len(b.rows[c].set.mats) < t2 {
			return false
		}
	}
	return true
}

// fit shapes the whole view as tl's Domain of c channels over the images
// bounds cover, and each cluster's view as its shard's rows.
func (b *batchDomain) fit(tl *winograd.Tiling, bounds [][2]int, c int) {
	d := b.whole.fit(tl, bounds[len(bounds)-1][1], c)
	tiles := tl.Tiles()
	for k, bd := range bounds {
		r := &b.rows[k]
		r.d = winograd.Domain{Tiling: tl, B: bd[1] - bd[0], C: c, El: r.set.rowsOf(d.El, bd[0]*tiles, bd[1]*tiles)}
	}
}

// all returns the whole-batch Domain as last fitted.
func (b *batchDomain) all() *winograd.Domain { return &b.whole.d }

// cluster returns cluster c's view as last fitted.
func (b *batchDomain) cluster(c int) *winograd.Domain { return &b.rows[c].d }

// weightsView is a reusable Weights over a caller-provided buffer.
type weightsView struct {
	w   winograd.Weights
	set matSet
}

func (v *weightsView) reserve(t2 int) { v.set.reserve(t2) }

// fit shapes the view as tr's In×Out weights laid out back to back in buf.
func (v *weightsView) fit(tr *winograd.Transform, in, out int, buf []float32) *winograd.Weights {
	t2 := tr.T * tr.T
	v.w = winograd.Weights{Tr: tr, In: in, Out: out, El: v.set.fit(buf, t2, in, out)}
	return &v.w
}

// shardView points v at images [lo, hi) of x, sharing x's storage.
func shardView(v, x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	stride := x.C * x.H * x.W
	*v = tensor.Tensor{N: hi - lo, C: x.C, H: x.H, W: x.W, Data: x.Data[lo*stride : hi*stride]}
	return v
}
