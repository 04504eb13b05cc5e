// Package planner searches, per layer, the full parallelization-strategy
// space of the 256-module fleet — every ordered (Ng, Nc, Nf, Ni)
// factorization, i.e. arbitrary group/cluster splits plus the filter- and
// input-channel-sharding axes of Jia et al. ("Exploring Hidden Dimensions
// in Parallelizing CNNs") — and emits an executable per-layer Plan that
// sim.SimulateNetworkWithPlan and mpt consume in place of the paper's
// fixed three-config menu.
//
// The search has three deterministic stages:
//
//  1. Enumerate. comm.Factorizations(p) filtered per layer (Ng ≤ T²,
//     Nc ≤ batch, Nf ≤ Out, Ni ≤ In), plus the three menu wirings as
//     anchors and the direct-convolution baseline.
//  2. Prune. Each candidate gets a communication-time lower bound
//     (sim.CommFloorSec, Chen/Demmel-style: link model × unavoidable
//     volume, no compute terms). The menu anchors are simulated first;
//     any non-anchor whose bound already exceeds the best anchor time by
//     the slack factor is dominated and never reaches the full oracle.
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
	// replaced by WMpFull, the paper's best configuration.
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

func (o Options) predictive() bool {
	c := o.config()
	return c == sim.WMpPred || c == sim.WMpFull
}

// Candidate is one enumerated strategy for one layer.
type Candidate struct {
	St comm.Strategy
	// Anchor marks the fixed-menu wirings (and the direct baseline);
	// anchors are never pruned, so the DP's solution space always
	// contains the whole menu.
	Anchor bool
	// FloorSec is the communication-time lower bound used for pruning.
	FloorSec float64
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
	timeSec  float64 // repeat-scaled iteration time
	achieved int64
	bound    int64
}

// Build runs the search and returns the plan for net.
func Build(net model.Network, opts Options) Plan {
	sys := opts.System
	cfg := opts.config()
	p := sys.Workers
	workers := hostWorkers(sys)

	plan := Plan{Network: net.Name, Workers: p, Config: cfg, Slack: DefaultSlack}
	nodes := make([][]node, len(net.Layers))
	anchorNodes := make([][]node, len(net.Layers))
	candTotals := make([]int, len(net.Layers))
	prunedTotals := make([]int, len(net.Layers))

	for i, l := range net.Layers {
		cands := Candidates(l, net.Batch, p, opts.predictive(), sys.Reductions, opts.AllowWideTiles)
		for ci := range cands {
			cands[ci].FloorSec = sys.CommFloorSec(l, net.Batch, cands[ci].St)
		}
		rep := float64(l.EffectiveRepeat())

		// Anchors sit at the head of the candidate list — the menu
		// wirings first, then the direct baseline. They are simulated
		// unconditionally; the best MENU anchor sets both the acceptance
		// bar (MenuExecSec reproduces SimulateNetwork's dynamic-
		// clustering choice) and the pruning threshold, which is a pure
		// function of those results, so every other candidate's pruning
		// decision is order-independent.
		na := 0
		for na < len(cands) && cands[na].Anchor {
			na++
		}
		menuN := len(comm.DefaultConfigs(p))
		if menuN > na {
			menuN = na
		}
		anchorRes := parallel.Map(workers, na, func(j int) sim.LayerResult {
			return sys.SimulateLayerStrategy(l, net.Batch, cfg, cands[j].St)
		})
		anchorBest := math.Inf(1)
		for _, r := range anchorRes[:menuN] {
			if t := r.TotalSec(); t < anchorBest {
				anchorBest = t
			}
		}
		plan.MenuExecSec += anchorBest * rep

		var rest []Candidate
		pruned := 0
		for _, c := range cands[na:] {
			if c.FloorSec <= anchorBest*DefaultSlack {
				rest = append(rest, c)
			} else {
				pruned++
			}
		}
		restRes := parallel.Map(workers, len(rest), func(j int) sim.LayerResult {
			return sys.SimulateLayerStrategy(l, net.Batch, cfg, rest[j].St)
		})

		// The menu anchors go to anchorNodes for the menu-restricted DP.
		// The plan's DP runs over the dominance-filtered set: any
		// candidate (anchor or not) whose layer time loses to the best
		// menu anchor is excluded, which guarantees the executed plan
		// (Σ layer times) never exceeds the fixed menu's result, no
		// matter how the DP trades redistribution. The best anchor
		// itself always qualifies, so the DP is never infeasible.
		mkNode := func(c Candidate, r sim.LayerResult) node {
			return node{st: c.St, timeSec: r.TotalSec() * rep, achieved: r.NetBytes, bound: r.BoundBytes}
		}
		anchorNodes[i] = make([]node, menuN)
		for j := 0; j < menuN; j++ {
			anchorNodes[i][j] = mkNode(cands[j], anchorRes[j])
		}
		var layerNodes []node
		for j, r := range anchorRes {
			if r.TotalSec() <= anchorBest {
				layerNodes = append(layerNodes, mkNode(cands[j], r))
			}
		}
		for j, r := range restRes {
			if r.TotalSec() <= anchorBest {
				layerNodes = append(layerNodes, mkNode(rest[j], r))
			}
		}
		nodes[i] = layerNodes
		candTotals[i] = len(cands)
		prunedTotals[i] = pruned
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
			Candidates:    candTotals[i],
			Pruned:        prunedTotals[i],
		}
		if i > 0 {
			ch.RedistSec = redistSec(sys, net.Layers[i-1], net.Batch, nodes[i-1][picks[i-1]].st, nd.st)
		}
		plan.ExecSec += ch.LayerSec
		plan.RedistSec += ch.RedistSec
		plan.Choices = append(plan.Choices, ch)
	}
	emitTelemetry(sys, plan)
	return plan
}

// solveDP runs the layer-sequence shortest path: dp[i][j] =
// min_k dp[i−1][k] + redist(k, j) + time[i][j]. Ties break to the
// earliest predecessor, keeping the picks deterministic.
func solveDP(sys sim.System, net model.Network, nodes [][]node) (float64, []int) {
	n := len(nodes)
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
				c := prev[k] + redistSec(sys, net.Layers[i-1], net.Batch, nodes[i-1][k].st, nodes[i][j].st)
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

// Candidates enumerates the strategy space for one layer: the menu
// anchors and direct baseline first (exempt from pruning), then every
// feasible (Ng, Nc, Nf, Ni) factorization of p in comm.Factorizations
// order, each crossed with the Winograd tile-size axis (TileM = 0 is the
// paper's group-count rule; explicit m values that differ from it widen
// the space, with m = 6 admitted only behind wideTiles). Feasibility: the
// resolved transform must have at least Ng tile elements, clusters cannot
// outnumber batch samples, and shard counts cannot outnumber the channels
// they split.
func Candidates(l model.Layer, batch, p int, predictive bool, red comm.Reductions, wideTiles bool) []Candidate {
	type key struct {
		ng, nc, nf, ni, tileM int
		winograd              bool
	}
	seen := make(map[key]bool)
	var out []Candidate
	add := func(st comm.Strategy, anchor bool) {
		k := key{st.Ng, st.Nc, st.FilterShards(), st.ChannelShards(), st.TileM, st.Winograd}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, Candidate{St: st, Anchor: anchor})
	}

	for _, cc := range comm.DefaultConfigs(p) {
		st, _ := comm.StrategyFor(cc, l.P.K, predictive, red)
		add(st, true)
	}
	// The direct-convolution baseline is part of the space (and of
	// Table IV); it anchors too, so pruning can never hide it.
	add(comm.Strategy{Ng: 1, Nc: p}, true)

	for _, f := range comm.Factorizations(p) {
		if f.Nc > batch || f.Nf > l.P.Out || f.Ni > l.P.In {
			continue
		}
		// The tile axis: TileM = 0 first (the paper rule — what the menu
		// anchors use, so it dedups against them), then the explicit sizes
		// that differ from the rule's choice for this Ng. Only 3×3 kernels
		// have alternatives (F(2×2,5×5) is the sole 5×5 transform).
		paperM := 4
		if f.Ng > 1 {
			paperM = 2
		}
		tileMs := [4]int{0, -1, -1, -1}
		nt := 1
		if l.P.K == 3 {
			for _, m := range [3]int{2, 4, 6} {
				if m == paperM || (m == 6 && !wideTiles) {
					continue
				}
				tileMs[nt] = m
				nt++
			}
		}
		for _, tm := range tileMs[:nt] {
			tr, err := winograd.ForKernelTile(l.P.K, f.Ng, tm)
			if err != nil || f.Ng > tr.T*tr.T {
				continue
			}
			st := comm.Strategy{Ng: f.Ng, Nc: f.Nc, Nf: f.Nf, Ni: f.Ni, Winograd: true, TileM: tm}
			if predictive {
				st.GatherReduction, st.ScatterReduction = red.Get(tr.T, f.Ng)
			}
			add(st, false)
		}
	}
	return out
}

// redistSec prices moving layer prev's output activations from layout a
// to layout b. The spatial output tensor (4·B·Out·OH·OW bytes) is spread
// over p workers; the fraction that already sits on the right worker is
// the product of per-axis overlaps min/max (batch split a.Nc vs b.Nc,
// producer filter shards vs consumer channel shards, tile-position groups
// a.Ng vs b.Ng). The remainder crosses the tile fabric once.
func redistSec(sys sim.System, prev model.Layer, batch int, a, b comm.Strategy) float64 {
	if a == b {
		return 0
	}
	ov := axisOverlap(a.Nc, b.Nc) *
		axisOverlap(a.FilterShards(), b.ChannelShards()) *
		axisOverlap(a.Ng, b.Ng)
	// A tile-size change re-blocks the tile-position partition the groups
	// shard over: when either side actually shards it (Ng > 1), only the
	// aligned fraction of the old m×m blocking survives in place.
	if a.Ng > 1 || b.Ng > 1 {
		ma, mb := effTileM(a, prev.P.K), effTileM(b, prev.P.K)
		if ma != mb {
			ov *= axisOverlap(ma*ma, mb*mb)
		}
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

// effTileM resolves the tile output size a strategy actually runs with for
// kernel size k: the explicit TileM axis, or the paper's group-count rule
// when unset (F(2×2) for multi-group 3×3 layers, F(4×4) otherwise; 5×5
// kernels only have m = 2).
func effTileM(st comm.Strategy, k int) int {
	if !st.Winograd {
		return 1
	}
	if st.TileM != 0 {
		return st.TileM
	}
	if k == 3 && st.Ng == 1 {
		return 4
	}
	return 2
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

// hostWorkers resolves the fan-out width like sim does.
func hostWorkers(sys sim.System) int {
	if sys.Parallel > 0 {
		return sys.Parallel
	}
	return parallel.DefaultWorkers()
}

// emitTelemetry publishes the plan's achieved-vs-bound bytes and search
// statistics on the system's registry (nil-safe no-ops when detached).
func emitTelemetry(sys sim.System, p Plan) {
	for _, c := range p.Choices {
		sys.Metrics.Gauge("planner.achieved_bytes." + c.Layer).Set(c.AchievedBytes)
		sys.Metrics.Gauge("planner.bound_bytes." + c.Layer).Set(c.BoundBytes)
		sys.Metrics.Counter("planner.candidates").Add(int64(c.Candidates))
		sys.Metrics.Counter("planner.pruned").Add(int64(c.Pruned))
	}
	sys.Metrics.Gauge("planner.plan_us").Set(int64(p.TotalSec * 1e6))
	sys.Metrics.Gauge("planner.menu_us").Set(int64(p.MenuTotalSec * 1e6))
}
