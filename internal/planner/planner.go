// Package planner searches, per layer, the full parallelization-strategy
// space of the 256-module fleet — every ordered (Ng, Nc, Nf, Ni)
// factorization, i.e. arbitrary group/cluster splits plus the filter- and
// input-channel-sharding axes of Jia et al. ("Exploring Hidden Dimensions
// in Parallelizing CNNs") — and emits an executable per-layer Plan that
// sim.SimulateNetworkWithPlan and mpt consume in place of the paper's
// fixed three-config menu.
//
// The search has three deterministic stages. The first two run per
// layer, each layer's whole search serially on one host worker, and the
// layers fan out across the pool:
//
//  1. Enumerate. comm.Factorizations(p), listed once per Build, filtered
//     per layer (Ng ≤ T², Nc ≤ batch, Nf ≤ Out, Ni ≤ In), plus the three
//     menu wirings as anchors and the direct-convolution baseline.
//  2. Prune. The menu anchors are simulated first. Each other candidate
//     gets a communication-time lower bound (sim.CommFloorSec,
//     Chen/Demmel-style: link model × unavoidable volume, no compute
//     terms); one whose bound already exceeds the best anchor time by the
//     slack factor is dominated and never reaches the full oracle.
//     Anchors are exempt, which guarantees the plan never loses to the
//     fixed menu under the same accounting.
//  3. Choose. A shortest-path DP over the layer sequence adds an
//     inter-layer redistribution cost when adjacent layers pick different
//     layouts, so the plan pays for reshaping activations between
//     configurations instead of greedily chasing per-layer minima. The
//     DP runs over the menu-dominating candidates only (layer time no
//     worse than the best anchor), so the executed plan's per-layer sum
//     can never lose to the fixed menu's per-layer-greedy result.
//
// Everything is index-ordered and float-stable: the same network, fleet
// and options produce byte-identical plans at any host worker count.
package planner

import (
	"math"
	"slices"

	"mptwino/internal/comm"
	"mptwino/internal/model"
	"mptwino/internal/parallel"
	"mptwino/internal/sim"
	"mptwino/internal/winograd"
)

// DefaultSlack is the lower-bound pruning slack: candidates whose
// communication floor exceeds slack × (best anchor time) are dropped
// without full simulation. 1.25 keeps every candidate whose floor is
// within 25% of the menu's achieved time — generous, because the floor
// ignores compute and the winner may hide behind a low floor.
const DefaultSlack = 1.25

// Options configures a planner run.
type Options struct {
	// System is the cost-model oracle; its Workers field is the fleet
	// size the factorizations must multiply to.
	System sim.System
	// Config selects the simulation config class the plan is built for
	// (prediction/zero-skip on for WMpPred/WMpFull). The zero value is
	// replaced by WMpFull, the paper's best configuration, so d_dp cannot
	// be requested: direct convolution has no strategy space to plan.
	Config sim.SystemConfig
	// AllowWideTiles admits the numerically unsafe F(6×6,3×3) transform
	// into the tile-size axis (mptsim -autoplan -allow-wide-tiles). The
	// default axis stops at F(4×4,3×3): the coefficient growth of wider
	// Cook–Toom transforms amplifies float32 error beyond training
	// tolerance (winograd/stability_test.go), so m = 6 is inference-grade
	// only and must be an explicit choice.
	AllowWideTiles bool
}

func (o Options) config() sim.SystemConfig {
	if o.Config == sim.SystemConfig(0) {
		return sim.WMpFull
	}
	return o.Config
}

// Candidate is one enumerated strategy for one layer.
type Candidate struct {
	St comm.Strategy
	// Anchor marks the fixed-menu wirings (and the direct baseline);
	// anchors are never pruned, so the DP's solution space always
	// contains the whole menu.
	Anchor bool
}

// LayerChoice is the plan's decision for one layer.
type LayerChoice struct {
	Layer  string
	Repeat int
	St     comm.Strategy

	// LayerSec is the simulated iteration time of this layer under St,
	// Repeat included. RedistSec is the cost of reshaping the previous
	// layer's activations into this layer's layout (0 for the first
	// layer and between identically-laid-out neighbors).
	LayerSec  float64
	RedistSec float64

	// AchievedBytes is the per-worker traffic the choice actually moves
	// in one (unrepeated) iteration; BoundBytes is the layer's dense
	// communication floor (comm.LowerBoundBytes) it is compared against.
	AchievedBytes int64
	BoundBytes    int64

	// Candidates and Pruned count the layer's search: enumerated
	// strategies and how many the lower bound eliminated before full
	// simulation.
	Candidates int
	Pruned     int
}

// Plan is the executable result of a planner run.
type Plan struct {
	Network string
	Workers int
	Config  sim.SystemConfig
	Slack   float64
	Choices []LayerChoice

	// ExecSec is the plan's simulated iteration time — what
	// SimulateNetworkWithPlan reports, under the paper's free-
	// reorganization assumption (footnote 9) that SimulateNetwork also
	// embodies. MenuExecSec is the fixed menu's result under the same
	// assumption (the per-layer best anchor sum, what SimulateNetwork
	// returns for the dynamic-clustering config). ExecSec ≤ MenuExecSec
	// always: the DP space is dominance-filtered against the anchors.
	ExecSec     float64
	MenuExecSec float64

	// TotalSec and MenuTotalSec re-price both plans with the DP's
	// redistribution accounting (layer times plus activation reshaping
	// between differently-laid-out neighbors) — the diagnostic for how
	// much the free-reorganization assumption hides on each side.
	TotalSec     float64
	RedistSec    float64
	MenuTotalSec float64
}

// Strategies returns the per-layer strategy list, indexed like the
// network's layers — the form sim.SimulateNetworkWithPlan consumes.
func (p Plan) Strategies() []comm.Strategy {
	out := make([]comm.Strategy, len(p.Choices))
	for i, c := range p.Choices {
		out[i] = c.St
	}
	return out
}

// node is one surviving candidate with its simulated cost.
type node struct {
	st       comm.Strategy
	m        int     // F(m×m) tile output size on its layer; 1 for direct convolution
	timeSec  float64 // repeat-scaled iteration time
	achieved int64
	bound    int64
}

// Build runs the search and returns the plan for net. A network with no
// layers gets a plan with no choices and zero times.
func Build(net model.Network, opts Options) Plan {
	sys := opts.System
	cfg := opts.config()
	plan := Plan{Network: net.Name, Workers: sys.Workers, Config: cfg, Slack: DefaultSlack}

	// One fan-out: each item is one layer's whole search, enumerated into
	// its worker's candidate buffer, which the worker's next layer reuses.
	enum := newEnumerator(sys.Workers, cfg.UsesPrediction(), sys.Reductions, opts.AllowWideTiles)
	n, workers := len(net.Layers), sys.HostWorkers()
	layers := make([]layerSearch, n)
	bufs := make([][]Candidate, parallel.Workers(workers, n))
	parallel.ForEachWorker(workers, n, func(w, i int) {
		if bufs[w] == nil {
			bufs[w] = make([]Candidate, 0, enum.maxLen) // no layer regrows it
		}
		l := net.Layers[i]
		bufs[w] = enum.appendCandidates(bufs[w][:0], l, net.Batch)
		layers[i] = searchLayer(&sys, cfg, l, net.Batch, bufs[w])
	})

	nodes := make([][]node, n)
	anchorNodes := make([][]node, n)
	for i, ls := range layers {
		plan.MenuExecSec += ls.menuSec
		nodes[i], anchorNodes[i] = ls.nodes, ls.anchors
	}
	total, picks := solveDP(sys, net, nodes)
	menuTotal, _ := solveDP(sys, net, anchorNodes)

	plan.TotalSec = total
	plan.MenuTotalSec = menuTotal
	for i, j := range picks {
		nd := nodes[i][j]
		ch := LayerChoice{
			Layer:         net.Layers[i].Name,
			Repeat:        net.Layers[i].EffectiveRepeat(),
			St:            nd.st,
			LayerSec:      nd.timeSec,
			AchievedBytes: nd.achieved,
			BoundBytes:    nd.bound,
			Candidates:    layers[i].candidates,
			Pruned:        layers[i].pruned,
		}
		if i > 0 {
			ch.RedistSec = redistSec(sys, net.Layers[i-1], net.Batch, nodes[i-1][picks[i-1]], nd)
		}
		plan.ExecSec += ch.LayerSec
		plan.RedistSec += ch.RedistSec
		plan.Choices = append(plan.Choices, ch)
	}
	emitTelemetry(sys, plan)
	return plan
}

// layerSearch is one layer's search result.
type layerSearch struct {
	menuSec float64 // the best menu anchor's repeat-scaled time
	anchors []node  // the menu anchors, for the menu-restricted DP
	nodes   []node  // the menu-dominating candidates, for the plan's DP

	candidates, pruned int
}

// searchLayer runs stages 1 and 2 for one layer on the calling goroutine
// over its enumerated candidates.
//
// Anchors sit at the head of the candidate list — the menu wirings first,
// then the direct baseline. They are simulated unconditionally; the best
// MENU anchor sets both the acceptance bar (menuSec reproduces
// SimulateNetwork's dynamic-clustering choice) and the pruning threshold,
// which is a pure function of those results, so every other candidate's
// pruning decision is order-independent.
//
// The menu anchors also go to anchors for the menu-restricted DP. The
// plan's DP runs over the dominance-filtered set: any candidate (anchor or
// not) whose layer time loses to the best menu anchor is excluded, which
// guarantees the executed plan (Σ layer times) never exceeds the fixed
// menu's result, no matter how the DP trades redistribution. The best
// anchor itself always qualifies, so the DP is never infeasible.
func searchLayer(sys *sim.System, cfg sim.SystemConfig, l model.Layer, batch int, cands []Candidate) layerSearch {
	rep := float64(l.EffectiveRepeat())
	na := 0
	for na < len(cands) && cands[na].Anchor {
		na++
	}
	menuN := na - 1 // the direct baseline closes the anchors
	anchors := make([]node, na)
	secs := make([]float64, na)
	best := math.Inf(1)
	for j := range anchors {
		r := sys.SimulateLayerStrategy(l, batch, cfg, cands[j].St)
		anchors[j], secs[j] = newNode(l, cands[j].St, r, rep), r.TotalSec()
		if j < menuN && secs[j] < best {
			best = secs[j]
		}
	}

	ls := layerSearch{menuSec: best * rep, anchors: anchors[:menuN], candidates: len(cands)}
	for j, nd := range anchors {
		if secs[j] <= best {
			ls.nodes = append(ls.nodes, nd)
		}
	}
	for _, c := range cands[na:] {
		if sys.CommFloorSec(l, batch, c.St) > best*DefaultSlack {
			ls.pruned++
			continue
		}
		if r := sys.SimulateLayerStrategy(l, batch, cfg, c.St); r.TotalSec() <= best {
			ls.nodes = append(ls.nodes, newNode(l, c.St, r, rep))
		}
	}
	return ls
}

// newNode records a simulated candidate of layer l as a DP node.
func newNode(l model.Layer, st comm.Strategy, r sim.LayerResult, rep float64) node {
	nd := node{st: st, m: 1, timeSec: r.TotalSec() * rep, achieved: r.NetBytes, bound: r.BoundBytes}
	if st.Winograd {
		tr, _ := st.Transform(l.P.K) // simulated, so feasible
		nd.m = tr.M
	}
	return nd
}

// solveDP runs the layer-sequence shortest path: dp[i][j] =
// min_k dp[i−1][k] + redist(k, j) + time[i][j]. Ties break to the
// earliest predecessor, keeping the picks deterministic.
func solveDP(sys sim.System, net model.Network, nodes [][]node) (float64, []int) {
	n := len(nodes)
	if n == 0 {
		return 0, nil
	}
	prev := make([]float64, len(nodes[0]))
	for j := range nodes[0] {
		prev[j] = nodes[0][j].timeSec
	}
	parents := make([][]int, n)
	for i := 1; i < n; i++ {
		cur := make([]float64, len(nodes[i]))
		par := make([]int, len(nodes[i]))
		for j := range nodes[i] {
			best, bi := math.Inf(1), 0
			for k := range nodes[i-1] {
				c := prev[k] + redistSec(sys, net.Layers[i-1], net.Batch, nodes[i-1][k], nodes[i][j])
				if c < best {
					best, bi = c, k
				}
			}
			cur[j] = best + nodes[i][j].timeSec
			par[j] = bi
		}
		parents[i] = par
		prev = cur
	}
	best, bi := math.Inf(1), 0
	for j, v := range prev {
		if v < best {
			best, bi = v, j
		}
	}
	picks := make([]int, n)
	picks[n-1] = bi
	for i := n - 1; i > 0; i-- {
		picks[i-1] = parents[i][picks[i]]
	}
	return best, picks
}

// Candidates enumerates the strategy space for one layer: the anchors
// first (exempt from pruning), then every feasible (Ng, Nc, Nf, Ni)
// factorization of p in comm.Factorizations order, each crossed with the
// Winograd tile-size axis. The anchors are the menu wirings as the
// dynamic-clustering config of the same prediction class runs them
// (sim.System.Strategies), then the direct-convolution baseline. The tile
// axis puts TileM = 0, the paper's group-count rule, first; explicit m
// values widen the space where their transform differs from the rule's,
// with m = 6 admitted only behind wideTiles. Feasibility: the resolved
// transform must have at least Ng tile elements, clusters cannot
// outnumber batch samples, and shard counts cannot outnumber the channels
// they split.
func Candidates(l model.Layer, batch, p int, predictive bool, red comm.Reductions, wideTiles bool) []Candidate {
	return newEnumerator(p, predictive, red, wideTiles).appendCandidates(nil, l, batch)
}

// tileMs is the tile-size axis: the paper rule (0) first, then each
// explicit m, the last (6) only behind wideTiles.
var tileMs = [...]int{0, 2, 4, 6}

// enumerator lists Candidates for the layers of one fleet; the fleet's
// factorizations are listed once.
type enumerator struct {
	p          int
	predictive bool
	red        comm.Reductions
	nt         int // how many of tileMs the axis takes
	facts      []comm.Factorization
	maxLen     int // an upper bound on one layer's candidate count
}

func newEnumerator(p int, predictive bool, red comm.Reductions, wideTiles bool) *enumerator {
	nt := len(tileMs)
	if !wideTiles {
		nt--
	}
	e := &enumerator{p: p, predictive: predictive, red: red, nt: nt, facts: comm.Factorizations(p)}
	// The menu wirings and the direct baseline, then at most one
	// candidate per (factorization, tile size).
	e.maxLen = len(comm.DefaultConfigs(p)) + 1 + nt*len(e.facts)
	return e
}

// appendCandidates appends l's candidates to dst in Candidates order.
func (e *enumerator) appendCandidates(dst []Candidate, l model.Layer, batch int) []Candidate {
	cfg := sim.WMpDyn
	if e.predictive {
		cfg = sim.WMpFull
	}
	menu := sim.System{Workers: e.p, Reductions: e.red}.Strategies(cfg, l.P.K)
	for _, st := range menu {
		dst = append(dst, Candidate{St: st, Anchor: true})
	}
	// The direct-convolution baseline is part of the space (and of
	// Table IV); it anchors too, so pruning can never hide it.
	dst = append(dst, Candidate{St: comm.Strategy{Ng: 1, Nc: e.p}, Anchor: true})

	// The layer's transforms, resolved once: an explicit m gives the same
	// F(m×m) whatever the group count (nil where the kernel has none), and
	// trs[0], the paper rule's, is resolved again only when Ng changes.
	var buf [len(tileMs)]*winograd.Transform
	trs := buf[:e.nt]
	for j := 1; j < e.nt; j++ {
		trs[j], _ = winograd.ForKernelTile(l.P.K, 1, tileMs[j])
	}
	ruleNg := 0
	for _, f := range e.facts {
		if f.Nc > batch || f.Nf > l.P.Out || f.Ni > l.P.In {
			continue
		}
		// Only a menu wiring at the paper rule can repeat an anchor.
		anchor := f.Nf*f.Ni == 1 && slices.ContainsFunc(menu, func(a comm.Strategy) bool {
			return a.Ng == f.Ng && a.Nc == f.Nc
		})
		if f.Ng != ruleNg {
			ruleNg = f.Ng
			trs[0], _ = winograd.ForKernel(l.P.K, f.Ng)
		}
		for j, tr := range trs {
			if tr == nil || f.Ng > tr.T*tr.T || (j == 0 && anchor) || (j != 0 && tr == trs[0]) {
				continue
			}
			st := comm.Strategy{Ng: f.Ng, Nc: f.Nc, Nf: f.Nf, Ni: f.Ni, Winograd: true, TileM: tileMs[j]}
			if e.predictive {
				st.GatherReduction, st.ScatterReduction = e.red.Get(tr.T, f.Ng)
			}
			dst = append(dst, Candidate{St: st})
		}
	}
	return dst
}

// redistSec prices moving layer prev's output activations from node a's
// layout to node b's. The spatial output tensor (4·B·Out·OH·OW bytes) is
// spread over p workers; the fraction that already sits on the right
// worker is the product of per-axis overlaps min/max (batch split a.Nc vs
// b.Nc, producer filter shards vs consumer channel shards, tile-position
// groups a.Ng vs b.Ng). The remainder crosses the tile fabric once.
func redistSec(sys sim.System, prev model.Layer, batch int, a, b node) float64 {
	if a.st == b.st {
		return 0
	}
	ov := axisOverlap(a.st.Nc, b.st.Nc) *
		axisOverlap(a.st.FilterShards(), b.st.ChannelShards()) *
		axisOverlap(a.st.Ng, b.st.Ng)
	// A tile-size change re-blocks the tile-position partition the groups
	// shard over: when either side actually shards it (Ng > 1), only the
	// aligned fraction of the old m×m blocking survives in place.
	if (a.st.Ng > 1 || b.st.Ng > 1) && a.m != b.m {
		ov *= axisOverlap(a.m*a.m, b.m*b.m)
	}
	outBytes := 4 * int64(batch) * int64(prev.P.Out) * int64(prev.P.OutH()) * int64(prev.P.OutW())
	moved := float64(outBytes) / float64(sys.Workers) * (1 - ov)
	if moved <= 0 {
		return 0
	}
	cong := sys.TileCongestion
	if cong <= 0 {
		cong = 1
	}
	return moved*cong/(sys.LinkBW/2) + 2*sys.SerDesSec
}

// axisOverlap returns the resident fraction min(a,b)/max(a,b) when one
// axis is split a ways by the producer and b ways by the consumer.
func axisOverlap(a, b int) float64 {
	if a < b {
		a, b = b, a
	}
	if a <= 0 {
		return 1
	}
	return float64(b) / float64(a)
}

// emitTelemetry publishes the plan's achieved-vs-bound bytes, which
// traceview joins into its layer rows, and the search counts perfbench
// reads, on the system's registry (nil-safe no-ops when detached).
func emitTelemetry(sys sim.System, p Plan) {
	for _, c := range p.Choices {
		sys.Metrics.Gauge("planner.achieved_bytes." + c.Layer).Set(c.AchievedBytes)
		sys.Metrics.Gauge("planner.bound_bytes." + c.Layer).Set(c.BoundBytes)
		sys.Metrics.Counter("planner.candidates").Add(int64(c.Candidates))
		sys.Metrics.Counter("planner.pruned").Add(int64(c.Pruned))
	}
}
