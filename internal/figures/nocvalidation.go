package figures

import (
	"fmt"
	"strings"

	"mptwino/internal/noc"
	"mptwino/internal/sim"
)

// NoCValidation cross-checks the analytic link-bandwidth model the system
// simulator uses against the flit-level network simulator on the paper's
// two traffic patterns over one 16-worker MPT group: a pipelined ring
// collective (weight gradients, sim.RingCheck) and a cluster all-to-all
// on the 4×4 FBFLY (tile transfer, sim.CellCheck). Message sizes are
// scaled down from the full gradients so the flit-level run stays
// tractable on one core; both model and simulator scale linearly in
// message size in this regime.
func NoCValidation() Result {
	var b strings.Builder
	metrics := map[string]float64{}
	cfg := noc.DefaultConfig()

	fmt.Fprintf(&b, "%-28s %12s %12s %8s\n", "pattern", "model (us)", "flit sim(us)", "ratio")
	for _, c := range []struct {
		name, key string
		check     sim.NoCCheck
	}{
		{"ring-16 collective 64KB", "ring", sim.RingCheck(cfg, 16, 64*1024)},
		{"fbfly-16 all-to-all 4KB", "a2a", sim.CellCheck(cfg, 16, 4*1024)},
	} {
		fmt.Fprintf(&b, "%-28s %12.2f %12.2f %8.2f\n", c.name, c.check.ModelUS, c.check.SimUS, c.check.Ratio)
		metrics[c.key+"_model_us"] = c.check.ModelUS
		metrics[c.key+"_sim_us"] = c.check.SimUS
		metrics[c.key+"_ratio"] = c.check.Ratio
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
