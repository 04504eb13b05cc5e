package sim

import (
	"fmt"

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
// iteration, each layer's Repeat count multiplying its time and energy. It
// is the one-config Sweep.
func (s System) SimulateNetwork(net model.Network, c SystemConfig) NetworkResult {
	return s.Sweep(net, []SystemConfig{c})[0]
}

// SimulateNetworkWithPlan runs layer i of net under plan[i] — the
// executable form of the auto-search planner's Plan — through the same
// fan-out and fold as SimulateNetwork. Redistribution between adjacent
// layers is priced by the planner, not here. A plan that does not hold one
// strategy per layer is an error.
func (s System) SimulateNetworkWithPlan(net model.Network, c SystemConfig, plan []comm.Strategy) (NetworkResult, error) {
	if len(plan) != len(net.Layers) {
		return NetworkResult{}, fmt.Errorf("sim: plan has %d strategies for %d layers", len(plan), len(net.Layers))
	}
	return s.sweep(net, []SystemConfig{c}, plan)[0], nil
}

// Sweep simulates net under every config in cfgs; entry i is bit-identical
// to SimulateNetwork(net, cfgs[i]).
func (s System) Sweep(net model.Network, cfgs []SystemConfig) []NetworkResult {
	return s.sweep(net, cfgs, nil)
}

// sweep is the one network runner: a single fan-out over every (config,
// layer) cell, then one in-order assembleNetwork fold per config. Without
// a plan, SimulateLayer resolves each config's strategies; with one, layer
// i runs plan[i]. It is one Map in all, not one per config, so a sweep
// pays for one fan-out.
func (s *System) sweep(net model.Network, cfgs []SystemConfig, plan []comm.Strategy) []NetworkResult {
	nl := len(net.Layers)
	cells := parallel.Map(s.HostWorkers(), len(cfgs)*nl, func(i int) LayerResult {
		l, c := net.Layers[i%nl], cfgs[i/nl]
		if plan != nil {
			return s.SimulateLayerStrategy(l, net.Batch, c, plan[i%nl])
		}
		return s.SimulateLayer(l, net.Batch, c)
	})
	out := make([]NetworkResult, len(cfgs))
	for ci, c := range cfgs {
		out[ci] = s.assembleNetwork(net, c, cells[ci*nl:(ci+1)*nl])
	}
	return out
}

// assembleNetwork folds per-layer results (indexed like net.Layers) into a
// NetworkResult in deterministic layer order.
func (s *System) assembleNetwork(net model.Network, c SystemConfig, layers []LayerResult) NetworkResult {
	res := NetworkResult{Network: net.Name, Config: c, Workers: s.Workers}
	for i, lr := range layers {
		rep := float64(net.Layers[i].EffectiveRepeat())
		res.IterationSec += lr.TotalSec() * rep
		res.Energy.Add(lr.Energy.Scale(rep))
		res.Layers = append(res.Layers, lr)
	}
	if res.IterationSec > 0 {
		res.ImagesPerSec = float64(net.Batch) / res.IterationSec
		res.PowerW = res.Energy.Total() / res.IterationSec
	}
	s.traceNetwork(net, c, res)
	return res
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
