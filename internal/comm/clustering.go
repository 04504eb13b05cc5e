package comm

import (
	"math"

	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/winograd"
)

// DefaultConfigs returns the paper's three dynamic-clustering wirings for
// p workers (Section IV): (16, p/16), (4, p/4) and (1, p), each a
// two-axis Winograd strategy without reductions. Wirings that do not
// divide p are dropped, so smaller systems still get a menu.
func DefaultConfigs(p int) []Strategy { return wirings(p, true) }

// SurvivorConfigs returns the best (Ng, Nc) wirings achievable with p
// surviving workers after module failures — the graceful-degradation menu
// the fault-recovery path re-solves over. Unlike DefaultConfigs it does not
// require Ng to divide p: the grid uses Ng·⌊p/Ng⌋ workers and idles the
// remainder (e.g. 255 survivors offer (16,15) using 240 workers, (4,63)
// using 252, and (1,255) using all). For a fully healthy, divisible p it
// degenerates to exactly DefaultConfigs.
func SurvivorConfigs(p int) []Strategy { return wirings(p, false) }

// wirings lists the menu's (16, ⌊p/16⌋), (4, ⌊p/4⌋) and (1, p) grids that
// fit p workers, only those that use every worker when divisible is set.
func wirings(p int, divisible bool) []Strategy {
	var out []Strategy
	for _, ng := range []int{16, 4, 1} {
		if nc := p / ng; nc >= 1 && (!divisible || p%ng == 0) {
			out = append(out, Strategy{Ng: ng, Nc: nc, Winograd: true})
		}
	}
	return out
}

// Reductions carries the Section-V traffic-reduction fractions to apply
// when activation prediction / zero-skipping is enabled. The Get method
// picks the 1-D or 2-D figures by whether the group count gives each
// worker whole tile lines.
type Reductions struct {
	Gather2D, Gather1D   float64 // activation prediction
	Scatter2D, Scatter1D float64 // zero-skipping
}

// PaperReductions returns the measured reductions quoted in Section V-B:
// activation prediction saves 34.0% (2-D, 6-bit) / 78.1% (1-D, 5-bit) of
// gathering; zero-skipping saves 39.3% / 64.7% of scattering.
func PaperReductions() Reductions {
	return Reductions{Gather2D: 0.340, Gather1D: 0.781, Scatter2D: 0.393, Scatter1D: 0.647}
}

// Get returns the (gather, scatter) reductions for a group count under
// tile size t.
func (r Reductions) Get(t, ng int) (gather, scatter float64) {
	if ng <= 1 {
		return 0, 0
	}
	if winograd.HoldsWholeLines(t, ng) {
		return r.Gather1D, r.Scatter1D
	}
	return r.Gather2D, r.Scatter2D
}

// Apply returns st carrying the reductions Get gives for its transform
// under k×k kernels and its group count.
func (r Reductions) Apply(st Strategy, k int) Strategy {
	tr, err := st.Transform(k)
	if err != nil {
		panic(err)
	}
	st.GatherReduction, st.ScatterReduction = r.Get(tr.T, st.Ng)
	return st
}

// ChooseClustering picks, for one layer, the strategy from menu with the
// smallest estimated communication time — the pre-computed per-layer
// decision the paper's dynamic clustering makes ("the optimal
// configuration per layer ... is pre-determined"). The estimate puts the
// weight collective, counted twice (reduce, then broadcast of the updated
// weights), on the ring fabric and the tile gather, scatter and partial
// sums on the FBFLY, each at half of Table III's four full-width links:
// 2 × 30 GB/s per worker and direction. Each strategy carries its own
// reductions; ties keep the earliest.
func ChooseClustering(p conv.Params, batch int, menu []Strategy) (Strategy, Volumes) {
	const bw = 2 * 30e9 // bytes/sec per worker, one direction, each fabric
	best := menu[0]
	bestTime := math.Inf(1)
	var bestVol Volumes
	for _, st := range menu {
		tr, err := st.Transform(p.K)
		if err != nil {
			panic(err)
		}
		v := LayerVolumes(tr, p, batch, st)
		t := 2 * float64(v.Weight) / bw
		t += float64(v.TileGather+v.TileScatter+v.PartialSum) / bw
		if t < bestTime {
			bestTime = t
			best = st
			bestVol = v
		}
	}
	return best, bestVol
}

// NetworkVolumesDynamic sums per-worker volumes over a network with
// per-layer dynamic clustering over the p-worker menu (DefaultConfigs),
// returning the total and the chosen strategy per layer (indexed like
// net.Layers). With pred set, each wiring carries red for its transform.
func NetworkVolumesDynamic(net model.Network, p int, pred bool, red Reductions) (Volumes, []Strategy) {
	var total Volumes
	choices := make([]Strategy, len(net.Layers))
	for i, l := range net.Layers {
		menu := DefaultConfigs(p)
		if pred {
			for j := range menu {
				menu[j] = red.Apply(menu[j], l.P.K)
			}
		}
		st, v := ChooseClustering(l.P, net.Batch, menu)
		choices[i] = st
		v.TileGather = int64(float64(v.TileGather) * l.EffectiveGatherScale())
		total = total.add(v.scale(int64(l.EffectiveRepeat())))
	}
	return total, choices
}
