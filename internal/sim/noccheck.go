package sim

import (
	"mptwino/internal/noc"
	"mptwino/internal/topology"
)

// NoCCheck is one flit-level cross-check of the analytic network model.
type NoCCheck struct {
	Pattern string // "cell-a2a" or "cluster-ring"
	Size    int    // cell size / ring member count
	Bytes   int64  // payload per pair / collective message
	ModelUS float64
	SimUS   float64
	Ratio   float64 // sim / model
}

// CellCheck runs an all-to-all of pairBytes per pair across one d-worker
// cell on its side×side flattened butterfly (narrow links: FlitBytes per
// cycle, 2·(side−1) of them per router) on the flit-level simulator. The
// analytic model is the hop-weighted bandwidth bound: each worker sources
// (d−1)·pairBytes over its narrow links, derated by the mean hop count
// 2s/(s+1). Their ratio at d = 16 calibrates System.TileCongestion.
func CellCheck(cfg noc.Config, d, pairBytes int) NoCCheck {
	side := 1
	for side*side < d {
		side++
	}
	n := noc.New(topology.FBFly2D(side), cfg)
	st, err := n.Run(&noc.AllToAll{Members: firstN(d), Bytes: pairBytes}, 50_000_000)
	if err != nil {
		panic(err)
	}
	simUS := st.Duration(cfg.ClockHz) * 1e6
	hops := 2 * float64(side) / float64(side+1)
	linkBytesPerCycle := float64(2*(side-1)) * float64(cfg.FlitBytes)
	modelUS := float64((d-1)*pairBytes) * hops / linkBytesPerCycle / cfg.ClockHz * 1e6
	return NoCCheck{
		Pattern: "cell-a2a", Size: d, Bytes: int64(pairBytes),
		ModelUS: modelUS, SimUS: simUS, Ratio: simUS / modelUS,
	}
}

// RingCheck runs a pipelined ring collective of msg bytes over n members
// with full links on the flit-level simulator, against the closed form
// the phase model charges for it (collectiveSeconds on DefaultSystem).
func RingCheck(cfg noc.Config, n, msg int) NoCCheck {
	nw := noc.New(topology.Ring(n), cfg)
	st, err := nw.Run(&noc.RingCollective{Members: firstN(n), Bytes: msg}, 50_000_000)
	if err != nil {
		panic(err)
	}
	simUS := st.Duration(cfg.ClockHz) * 1e6
	sys := DefaultSystem()
	modelUS := sys.collectiveSeconds(int64(msg), n, topology.Full.Bandwidth()) * 1e6
	return NoCCheck{
		Pattern: "cluster-ring", Size: n, Bytes: int64(msg),
		ModelUS: modelUS, SimUS: simUS, Ratio: simUS / modelUS,
	}
}

// firstN returns the node ids 0..n−1.
func firstN(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
