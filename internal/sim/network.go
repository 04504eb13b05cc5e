package sim

import (
	"mptwino/internal/comm"
	"mptwino/internal/energy"
	"mptwino/internal/model"
	"mptwino/internal/parallel"
)

// NetworkResult aggregates a whole CNN's simulated training iteration
// (the unit of Fig. 17/18).
type NetworkResult struct {
	Network string
	Config  SystemConfig
	Workers int

	IterationSec float64
	Energy       energy.Breakdown
	Layers       []LayerResult

	// ImagesPerSec is the training throughput at the network's batch size.
	ImagesPerSec float64
	// PowerW is the average system power over the iteration.
	PowerW float64
}

// SimulateNetwork runs every layer of net under config c and sums the
// iteration. Layer Repeat counts multiply both time and energy. Layers are
// independent, so they fan out across s.Parallel goroutines; the
// aggregation folds in layer order, keeping the result bit-identical to a
// sequential run.
func (s System) SimulateNetwork(net model.Network, c SystemConfig) NetworkResult {
	layers := parallel.Map(s.HostWorkers(), len(net.Layers), func(i int) LayerResult {
		return s.SimulateLayer(net.Layers[i], net.Batch, c)
	})
	return s.assembleNetwork(net, c, layers)
}

// assembleNetwork folds per-layer results (indexed like net.Layers) into a
// NetworkResult in deterministic layer order.
func (s System) assembleNetwork(net model.Network, c SystemConfig, layers []LayerResult) NetworkResult {
	res := NetworkResult{Network: net.Name, Config: c, Workers: s.Workers}
	for i, lr := range layers {
		rep := float64(net.Layers[i].EffectiveRepeat())
		res.IterationSec += lr.TotalSec() * rep
		res.Energy.Add(lr.Energy.Scale(rep))
		res.Layers = append(res.Layers, lr)
		s.countLayer(lr)
	}
	if res.IterationSec > 0 {
		res.ImagesPerSec = float64(net.Batch) / res.IterationSec
		res.PowerW = res.Energy.Total() / res.IterationSec
	}
	s.recordFleetSpeeds()
	s.traceNetwork(net, c, res)
	return res
}

// SimulateNetworkWithPlan runs every layer of net under its planned
// strategy (indexed like net.Layers) — the executable form of the
// auto-search planner's Plan — and assembles the iteration exactly like
// SimulateNetwork. Redistribution cost between differently-configured
// adjacent layers is the planner's concern (it selects the plan with that
// cost included); the per-layer simulation itself is unchanged.
func (s System) SimulateNetworkWithPlan(net model.Network, c SystemConfig, plan []comm.Strategy) NetworkResult {
	if len(plan) != len(net.Layers) {
		panic("sim: plan length does not match network layer count")
	}
	layers := parallel.Map(s.HostWorkers(), len(net.Layers), func(i int) LayerResult {
		return s.SimulateLayerStrategy(net.Layers[i], net.Batch, c, plan[i])
	})
	return s.assembleNetwork(net, c, layers)
}

// Sweep simulates net under every config in cfgs, fanning one goroutine
// out per (layer, config) cell — the full Table IV sweep as a single flat
// work list. The returned slice is indexed like cfgs, and each entry is
// bit-identical to SimulateNetwork(net, cfgs[i]).
func (s System) Sweep(net model.Network, cfgs []SystemConfig) []NetworkResult {
	nl := len(net.Layers)
	cells := parallel.Map(s.HostWorkers(), len(cfgs)*nl, func(i int) LayerResult {
		return s.SimulateLayer(net.Layers[i%nl], net.Batch, cfgs[i/nl])
	})
	out := make([]NetworkResult, len(cfgs))
	for ci, c := range cfgs {
		out[ci] = s.assembleNetwork(net, c, cells[ci*nl:(ci+1)*nl])
	}
	return out
}

// SingleWorkerBaseline simulates the 1-NDP system Fig. 17 normalizes to:
// the same worker hardware, no communication.
func SingleWorkerBaseline(net model.Network) NetworkResult {
	s := DefaultSystem()
	s.Workers = 1
	return s.SimulateNetwork(net, WDp)
}

// Speedup returns r's throughput relative to base.
func Speedup(r, base NetworkResult) float64 {
	if base.ImagesPerSec == 0 {
		return 0
	}
	return r.ImagesPerSec / base.ImagesPerSec
}
