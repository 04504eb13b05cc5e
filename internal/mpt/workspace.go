package mpt

import (
	"fmt"

	"mptwino/internal/ndp"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// workspace holds the buffers a pass's cluster fan-out reuses from call to
// call: the pool workers' scratch slots, each worker's Winograd-domain
// staging, the ring all-reduce's partial-gradient buffers and its reduce
// block. A Net's engines run one at a time, so they share one workspace,
// which grows to the largest layer; a lone Engine owns its own.
//
// Everything is sized by reserve, outside the pass; the pass itself only
// re-fits the reserved storage to the running layer's shapes, which never
// allocates.
type workspace struct {
	// workers is the pool size, fixed when the workspace is first used
	// (0 until then), like a winograd.Scratch built under that setting.
	workers int
	slots   *winograd.Scratch     // one slot per pool worker
	splits  [][]*winograd.Scratch // splits[k-1]: slots divided among k cluster workers
	stage   []workerStage         // per cluster worker

	ring     []float32     // per cluster: a full T²·In·Out partial dW, cluster-major
	partials []weightsView // per cluster: the partial dW over its ring region
	rb       *ndp.ReduceBlock
}

// workerStage is one cluster worker's Winograd-domain staging: the forward
// output (fprop) or output gradient (bprop, updateGrad) in a, the input
// gradient (bprop) in b.
type workerStage struct {
	a, b domainView
}

// clusterWorkers returns how many pool workers a grid of nc clusters fans
// out over: one per cluster, up to the pool size.
func (ws *workspace) clusterWorkers(nc int) int { return min(ws.workers, nc) }

// split returns the scratch parts of nc clusters' fan-out: one per cluster
// worker, the pool's slots divided among them.
func (ws *workspace) split(nc int) []*winograd.Scratch {
	return ws.splits[ws.clusterWorkers(nc)-1]
}

// reserve grows the workspace for e's passes over clusters of at most
// maxShard images. It builds the pool slots on first use.
func (ws *workspace) reserve(e *Engine, maxShard int) {
	if ws.workers == 0 {
		ws.workers = parallel.DefaultWorkers()
		ws.slots = winograd.NewScratch()
		ws.splits = make([][]*winograd.Scratch, ws.workers)
		ws.rb = ndp.NewReduceBlock(0, 2)
	}
	nc := e.Cfg.Nc
	cw := ws.clusterWorkers(nc)
	if ws.splits[cw-1] == nil {
		ws.splits[cw-1] = ws.slots.Split(cw)
	}
	for len(ws.stage) < cw {
		ws.stage = append(ws.stage, workerStage{})
	}
	t2, rows := e.Tr.T*e.Tr.T, maxShard*e.tiling.Tiles()
	for w := 0; w < cw; w++ {
		ws.stage[w].a.reserve(t2, rows*e.P.Out)
		ws.stage[w].b.reserve(t2, rows*e.P.In)
	}
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
