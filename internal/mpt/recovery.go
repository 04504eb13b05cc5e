package mpt

import (
	"fmt"

	"mptwino/internal/comm"
	"mptwino/internal/winograd"
)

// Checkpoint captures the engine's full Winograd-domain weight state. The
// weights are the only training state that must survive a module failure:
// activations and gradients are per-iteration, and the forward caches are
// rebuilt by the next Fprop. The copy is deep, so later training does not
// disturb it.
func (e *Engine) Checkpoint() *winograd.Weights { return e.W.Clone() }

// Restore replaces the engine's weights with a checkpoint and invalidates
// the forward caches (an UpdateGrad before the next Fprop errors instead
// of silently mixing pre- and post-restore state).
func (e *Engine) Restore(w *winograd.Weights) {
	e.W = w.Clone()
	e.fwdBatch = 0
}

// Reconfigure re-wires the engine to a new (Ng, Nc) grid — the recovery
// step after module failures shrink the worker pool. The full Winograd
// weight set is re-sharded by rebuilding each group's element ownership,
// and the batch re-shards automatically on the next pass (shardBounds
// derives from Cfg.Nc). Weights are untouched, so training resumed from a
// checkpoint is numerically identical to a fault-free run at the new grid.
func (e *Engine) Reconfigure(ng, nc int) error {
	if err := e.checkGrid(ng, nc); err != nil {
		return err
	}
	e.Cfg.Ng, e.Cfg.Nc = ng, nc
	if len(e.Cfg.Speeds) != nc {
		// A speed profile sized for the old grid cannot address the new
		// clusters; drop it (Rebalance installs the survivor speeds).
		e.Cfg.Speeds = nil
	}
	e.setGroups(ng)
	e.fwdBatch = 0
	return nil
}

// checkGrid rejects an (Ng, Nc) grid the engine cannot run: a count
// below 1, or more groups than its transform has tile elements.
func (e *Engine) checkGrid(ng, nc int) error {
	if ng < 1 || nc < 1 {
		return fmt.Errorf("mpt: Ng=%d Nc=%d must be >= 1", ng, nc)
	}
	if t2 := e.Tr.T * e.Tr.T; ng > t2 {
		return fmt.Errorf("mpt: %d groups exceed %d tile elements", ng, t2)
	}
	return nil
}

// NetCheckpoint is a deep copy of every layer's Winograd-domain weights.
type NetCheckpoint struct {
	weights []*winograd.Weights
}

// Checkpoint snapshots the whole network's weights.
func (n *Net) Checkpoint() *NetCheckpoint {
	cp := &NetCheckpoint{}
	for _, e := range n.Engines {
		cp.weights = append(cp.weights, e.Checkpoint())
	}
	n.tel.checkpoints.Inc()
	n.event("checkpoint", map[string]any{"layers": len(n.Engines)})
	return cp
}

// Restore loads a checkpoint taken from a network of the same shape and
// drops any in-flight forward state.
func (n *Net) Restore(cp *NetCheckpoint) error {
	if len(cp.weights) != len(n.Engines) {
		return fmt.Errorf("mpt: checkpoint has %d layers, network has %d",
			len(cp.weights), len(n.Engines))
	}
	for i, e := range n.Engines {
		e.Restore(cp.weights[i])
	}
	n.forwarded = false
	n.tel.restores.Inc()
	n.event("restore", map[string]any{"layers": len(n.Engines)})
	return nil
}

// Reconfigure re-wires every layer to a new (Ng, Nc) grid. On failure the
// network is left unchanged: every engine is checked before any is
// changed, since layers may run different transforms (NewNetConfigs), and
// a group count one layer's tile elements hold can exceed another's.
func (n *Net) Reconfigure(ng, nc int) error {
	if len(n.Engines) == 0 {
		return fmt.Errorf("mpt: empty network")
	}
	for i, e := range n.Engines {
		if err := e.checkGrid(ng, nc); err != nil {
			return fmt.Errorf("%w (layer %d)", err, i)
		}
	}
	for _, e := range n.Engines {
		if err := e.Reconfigure(ng, nc); err != nil {
			return err
		}
	}
	n.Cfg.Ng, n.Cfg.Nc = ng, nc
	if len(n.Cfg.Speeds) != nc {
		n.Cfg.Speeds = nil
	}
	n.forwarded = false
	n.tel.reconfigs.Inc()
	n.event("reconfigure", map[string]any{"ng": ng, "nc": nc})
	return nil
}

// Rebalance installs a per-cluster speed profile on every layer and
// re-shards the next pass's batch proportionally (nil speeds revert to the
// equal B/Nc split). It returns the migration bill: the activation bytes
// that change cluster ownership under the new bounds, summed over layers —
// each image outside the overlap of its old and new owning interval must
// stream its per-layer input activations to the new owner. The recovery
// sequence after module failures on a heterogeneous fleet is therefore
// Reconfigure (survivor grid) → Rebalance (survivor speeds) → Restore
// (checkpoint); because shard bounds are a pure function of (grid,
// speeds), a rebalanced network trains bit-identically to one wired with
// the same speeds from the start.
func (n *Net) Rebalance(batch int, speeds []float64) (int64, error) {
	if len(n.Engines) == 0 {
		return 0, fmt.Errorf("mpt: empty network")
	}
	nc := n.Cfg.Nc
	oldBounds, err := shardBoundsFor(batch, nc, n.Cfg.Speeds)
	if err != nil {
		return 0, err
	}
	newBounds, err := shardBoundsFor(batch, nc, speeds)
	if err != nil {
		return 0, err
	}
	// Images whose old and new owning intervals overlap stay put; the
	// rest migrate.
	staying := 0
	for c := 0; c < nc; c++ {
		lo, hi := oldBounds[c][0], newBounds[c][0]
		if hi > lo {
			lo = hi
		}
		hi = oldBounds[c][1]
		if newBounds[c][1] < hi {
			hi = newBounds[c][1]
		}
		if hi > lo {
			staying += hi - lo
		}
	}
	moved := int64(batch - staying)

	var movedBytes int64
	for _, e := range n.Engines {
		perImage := 4 * int64(e.P.In) * int64(e.P.H) * int64(e.P.W)
		movedBytes += moved * perImage
		if speeds == nil {
			e.Cfg.Speeds = nil
		} else {
			e.Cfg.Speeds = append([]float64(nil), speeds...)
		}
		e.fwdBatch = 0
	}
	if speeds == nil {
		n.Cfg.Speeds = nil
	} else {
		n.Cfg.Speeds = append([]float64(nil), speeds...)
	}
	n.forwarded = false

	shares := make([]int, nc)
	for c, b := range newBounds {
		shares[c] = b[1] - b[0]
	}
	n.tel.rebalances.Inc()
	n.tel.rebalanceMoved.Add(movedBytes)
	n.tel.imbalance.Set(comm.ImbalancePermille(shares))
	n.event("rebalance", map[string]any{
		"moved_images": moved, "moved_bytes": movedBytes,
		"imbalance_permille": comm.ImbalancePermille(shares),
	})
	return movedBytes, nil
}
