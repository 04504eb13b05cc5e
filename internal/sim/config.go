// Package sim is the full-system simulator: it executes one training
// iteration of a convolution layer (or a whole CNN) over p NDP workers
// under each of the paper's Table IV system configurations, producing
// execution time, a four-factor energy breakdown, and traffic counts. The
// phase durations come from the ndp timing model and a link-bandwidth ×
// hop-count network model whose parameters match the flit-level noc
// simulator (CellCheck and RingCheck run the two side by side).
package sim

import (
	"fmt"

	"mptwino/internal/comm"
	"mptwino/internal/energy"
	"mptwino/internal/ndp"
	"mptwino/internal/parallel"
	"mptwino/internal/telemetry"
)

// SystemConfig enumerates Table IV.
type SystemConfig int

const (
	// DDp: direct convolution with data parallelism (update w).
	DDp SystemConfig = iota
	// WDp: Winograd convolution with data parallelism (update w).
	WDp
	// WMp: Winograd convolution with MPT at fixed (16,16) (update W).
	WMp
	// WMpPred: WMp + activation prediction and zero-skipping.
	WMpPred
	// WMpDyn: WMp + dynamic clustering.
	WMpDyn
	// WMpFull: WMp + activation prediction/zero-skip + dynamic clustering
	// (the paper's w_mp++).
	WMpFull
)

// String returns the paper's abbreviation.
func (c SystemConfig) String() string {
	switch c {
	case DDp:
		return "d_dp"
	case WDp:
		return "w_dp"
	case WMp:
		return "w_mp"
	case WMpPred:
		return "w_mp+"
	case WMpDyn:
		return "w_mp*"
	case WMpFull:
		return "w_mp++"
	default:
		return fmt.Sprintf("config(%d)", int(c))
	}
}

// AllConfigs returns Table IV in presentation order.
func AllConfigs() []SystemConfig {
	return []SystemConfig{DDp, WDp, WMp, WMpPred, WMpDyn, WMpFull}
}

// UsesPrediction reports whether the config applies Section V reductions.
func (c SystemConfig) UsesPrediction() bool { return c == WMpPred || c == WMpFull }

// usesDynamicClustering reports whether the config re-wires per layer.
func (c SystemConfig) usesDynamicClustering() bool { return c == WMpDyn || c == WMpFull }

// isMPT reports whether workers are organized in two dimensions.
func (c SystemConfig) isMPT() bool { return c >= WMp }

// System bundles the hardware parameters of one simulated machine.
type System struct {
	Workers int        // p (256 in the paper)
	NDP     ndp.Config // per-worker compute/DRAM model
	Energy  energy.Params

	// Parallel bounds the host goroutines the simulator's sweeps fan out
	// to (layers of SimulateNetwork, the dynamic-clustering menu, and the
	// (layer, config) cells of Sweep). 0 means parallel.DefaultWorkers();
	// 1 forces the sequential path. Results are bit-identical for every
	// value — all reductions fold in deterministic index order.
	Parallel int

	// Link budget per worker, one direction (Table III: four full-width
	// links = 120 GB/s per direction). MPT splits it evenly between the
	// collective rings and the tile-transfer FBFLY (Section VII-A).
	LinkBW float64

	// Reductions holds the Section V traffic-reduction fractions used by
	// prediction-enabled configs.
	Reductions comm.Reductions

	// SerDesSec is the per-hop link latency (5 ns).
	SerDesSec float64

	// Menu overrides the dynamic-clustering menu of (Ng, Nc) wirings. When
	// nil, the paper's divisible wirings comm.DefaultConfigs(Workers)
	// apply; the fault-recovery path installs comm.SurvivorConfigs(survivors)
	// so degraded worker counts still get (16, ⌊p/16⌋)-style grids that
	// idle the remainder. Strategies reads each entry's wiring and sets the
	// reductions itself.
	Menu []comm.Strategy

	// TileCongestion derates the tile-transfer bandwidth for switch-level
	// effects the analytic model misses (head-of-line blocking, XY-route
	// hotspots). Calibrated against the flit-level noc simulator: the
	// measured FBFLY all-to-all time is ~2.4× the hop-weighted bandwidth
	// bound, of which 1.6× is mean hop count, leaving ~1.5× congestion
	// (CellCheck at d = 16, which figures.NoCValidation reports).
	TileCongestion float64

	// ChunkBytes is the collective packet size (256 B).
	ChunkBytes int

	// ComputeSpeeds and LinkSpeeds hold per-module capability multipliers
	// in (0, 1] (index = physical module id; nil means a homogeneous fleet)
	// — typically fault.Plan.ModuleSpeeds output. Setting either opts the
	// layer cost model into the heterogeneous-fleet barrier of fleet.go:
	// the synchronous step is gated by the slowest cluster's share/speed
	// ratio. All-1.0 slices reproduce the homogeneous results bit-exactly.
	ComputeSpeeds []float64
	LinkSpeeds    []float64

	// ActiveModules maps worker-grid slots to physical module ids (nil =
	// identity). The fault-recovery path installs the compacted survivor
	// ids so the speed slices keep addressing the right modules after
	// failures renumber the grid.
	ActiveModules []int

	// LoadAware apportions the batch across clusters proportional to
	// effective cluster speed instead of equally — the heterogeneous-fleet
	// counterpart of the paper's B/Nc split (comm.LoadAwareShards).
	LoadAware bool

	// Metrics is the registry planner.Build publishes its search results
	// to; the simulator itself records nothing there. Trace records the
	// cycle-domain timeline, emitted only from the index-ordered assembly
	// fold with timestamps in simulated cycles at NDP.ClockHz. Both are
	// nil (disabled) by default. See internal/telemetry and DESIGN.md §10.
	Metrics *telemetry.Registry
	Trace   *telemetry.Tracer
}

// DefaultSystem returns the paper's 256-worker evaluation machine.
func DefaultSystem() System {
	return System{
		Workers:        256,
		NDP:            ndp.DefaultConfig(),
		Energy:         energy.DefaultParams(),
		LinkBW:         120e9,
		Reductions:     comm.PaperReductions(),
		SerDesSec:      5e-9,
		TileCongestion: 1.5,
		ChunkBytes:     256,
	}
}

// HostWorkers returns the resolved host-goroutine bound for sweep fan-out
// (Parallel, or parallel.DefaultWorkers when it is 0).
func (s System) HostWorkers() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return parallel.DefaultWorkers()
}

// menu returns the (Ng, Nc) wirings dynamic clustering optimizes over.
func (s *System) menu() []comm.Strategy {
	if s.Menu != nil {
		return s.Menu
	}
	return comm.DefaultConfigs(s.Workers)
}

// Strategies resolves Table IV config c to the strategies SimulateLayer
// runs for a layer with k×k kernels. d_dp and w_dp run one data-parallel
// strategy over every worker, direct and Winograd. w_mp and w_mp+ run one
// fixed grid: the installed menu's head (the fault path's survivor menu
// leads with Ng = 16 and idles the remainder), else (Ng, p/Ng) for the
// largest Ng ≤ 16 that divides p. w_mp* and w_mp++ run every menu wiring.
// The MPT strategies run at the paper's tile rule (TileM 0) with
// Nf = Ni = 1, and those of a prediction config carry the Section V
// reductions of their transform.
func (s System) Strategies(c SystemConfig, k int) []comm.Strategy {
	var wirings []comm.Strategy
	switch {
	case c == DDp || c == WDp:
		return []comm.Strategy{{Ng: 1, Nc: s.Workers, Winograd: c == WDp}}
	case c.usesDynamicClustering():
		wirings = s.menu()
	case s.Menu != nil:
		wirings = s.Menu[:1]
	default:
		ng := 16
		for s.Workers%ng != 0 {
			ng /= 2
		}
		wirings = []comm.Strategy{{Ng: ng, Nc: s.Workers / ng}}
	}
	out := make([]comm.Strategy, len(wirings))
	for i, w := range wirings {
		out[i] = comm.Strategy{Ng: w.Ng, Nc: w.Nc, Winograd: true}
		if c.UsesPrediction() {
			out[i] = s.Reductions.Apply(out[i], k)
		}
	}
	return out
}

// ringBW returns the per-worker outgoing bandwidth available to weight
// collectives under the config: data-parallel configs use all four links
// as rings; MPT gives half to the FBFLY.
func (s *System) ringBW(c SystemConfig) float64 {
	if c.isMPT() {
		return s.LinkBW / 2
	}
	return s.LinkBW
}
