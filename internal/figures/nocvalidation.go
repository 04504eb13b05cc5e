package figures

import (
	"fmt"
	"strings"

	"mptwino/internal/noc"
	"mptwino/internal/topology"
)

// NoCValidation cross-checks the analytic link-bandwidth model the system
// simulator uses against the flit-level network simulator on the paper's
// two traffic patterns: pipelined ring collectives (weight gradients) and
// cluster all-to-all (tile transfer). Message sizes are scaled down from
// the full gradients so the flit-level run stays tractable on one core;
// both model and simulator scale linearly in message size in this regime.
func NoCValidation() Result {
	var b strings.Builder
	metrics := map[string]float64{}
	cfg := noc.DefaultConfig()

	fmt.Fprintf(&b, "%-28s %12s %12s %8s\n", "pattern", "model (us)", "flit sim(us)", "ratio")

	// Ring collective over one MPT group (16 workers, full links).
	{
		const workers, msg = 16, 64 * 1024
		g := topology.Ring(workers)
		n := noc.New(g, cfg)
		members := make([]int, workers)
		for i := range members {
			members[i] = i
		}
		st, err := n.Run(&noc.RingCollective{Members: members, Bytes: msg}, 50_000_000)
		if err != nil {
			panic(err)
		}
		simUS := st.Duration(cfg.ClockHz) * 1e6
		modelUS := (2*float64(msg)*float64(workers-1)/float64(workers)/30e9 +
			2*float64(workers-1)*(5e-9+256.0/30e9)) * 1e6
		fmt.Fprintf(&b, "%-28s %12.2f %12.2f %8.2f\n", "ring-16 collective 64KB", modelUS, simUS, simUS/modelUS)
		metrics["ring_model_us"] = modelUS
		metrics["ring_sim_us"] = simUS
		metrics["ring_ratio"] = simUS / modelUS
	}

	// All-to-all over one 16-worker FBFLY cluster (narrow links).
	{
		const pairBytes = 4 * 1024
		g := topology.FBFly2D(4)
		n := noc.New(g, cfg)
		members := make([]int, 16)
		for i := range members {
			members[i] = i
		}
		st, err := n.Run(&noc.AllToAll{Members: members, Bytes: pairBytes}, 50_000_000)
		if err != nil {
			panic(err)
		}
		simUS := st.Duration(cfg.ClockHz) * 1e6
		// Model: each worker sources 15·pair bytes over 6 narrow links at
		// 10 B/cycle, derated by the 1.6 mean hop count.
		modelUS := float64(15*pairBytes) * 1.6 / 60.0 / cfg.ClockHz * 1e6
		fmt.Fprintf(&b, "%-28s %12.2f %12.2f %8.2f\n", "fbfly-16 all-to-all 4KB", modelUS, simUS, simUS/modelUS)
		metrics["a2a_model_us"] = modelUS
		metrics["a2a_sim_us"] = simUS
		metrics["a2a_ratio"] = simUS / modelUS
	}

	fmt.Fprintf(&b, "ratios near 1.0 validate the bandwidth x hop model used by internal/sim\n")
	return Result{
		ID:      "noc",
		Title:   "NoC validation: analytic model vs flit-level simulation",
		Table:   b.String(),
		Metrics: metrics,
	}
}

// Entry is one regenerable result: its id and the generator that builds
// it, so a caller can pick results by id without building the rest.
type Entry struct {
	ID    string
	Build func() Result
}

// Catalog lists every regenerable result in paper order: the configuration
// tables first, then the figures, then the methodology validation. Each
// Build returns the Result whose ID is its entry's.
func Catalog() []Entry {
	return []Entry{
		{"table1", TableI}, {"table2", TableII}, {"table3", TableIII}, {"table4", TableIV},
		{"fig01", Fig01}, {"fig06", Fig06}, {"fig07", Fig07}, {"fig12", Fig12}, {"fig14", Fig14},
		{"fig15", Fig15}, {"fig16", Fig16}, {"fig17", Fig17}, {"fig18", Fig18}, {"noc", NoCValidation},
	}
}

// Render formats a Result for terminal output.
func Render(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n%s\n%s\n", r.ID, r.Title, r.Table)
	return b.String()
}
