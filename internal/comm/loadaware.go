package comm

import (
	"math"

	"mptwino/internal/conv"
)

// This file implements load-aware batch sharding for heterogeneous fleets
// (slow modules, throttled regions, mixed-generation HMC stacks). The
// paper's dynamic clustering assumes 256 identical modules and splits the
// batch B equally across the Nc clusters; once module speeds differ, the
// synchronous step is gated by the slowest cluster's share/speed ratio, so
// the planner apportions shares proportional to effective cluster speed
// instead (cf. Rama et al., load-aware splits on heterogeneous edge
// clusters). Every function here is deterministic and schedule-invariant:
// shares depend only on (batch, speeds), never on iteration order or
// worker count.

// EqualShards returns the baseline equal split of batch across nc
// clusters: each cluster takes ceil-or-floor shares differing by at most
// one, earlier clusters taking the remainder (matching the engine's
// c*batch/Nc shard bounds).
func EqualShards(batch, nc int) []int {
	out := make([]int, nc)
	for c := 0; c < nc; c++ {
		out[c] = (c+1)*batch/nc - c*batch/nc
	}
	return out
}

// ClusterSpeeds folds per-module compute speeds into per-cluster effective
// speeds for an (ng, nc) grid over the given active modules: cluster c
// owns modules[c*ng : (c+1)*ng], and its speed is the *minimum* member
// speed — the intra-cluster scatter/compute/gather barrier waits for the
// slowest group member. Modules beyond speeds' range (or a nil slice)
// read 1.
func ClusterSpeeds(speeds []float64, modules []int, ng, nc int) []float64 {
	out := make([]float64, nc)
	for c := 0; c < nc; c++ {
		s := 1.0
		for g := 0; g < ng; g++ {
			idx := c*ng + g
			if idx >= len(modules) {
				break
			}
			m := modules[idx]
			if m >= 0 && m < len(speeds) && speeds[m] < s {
				s = speeds[m]
			}
		}
		out[c] = s
	}
	return out
}

// LoadAwareShards apportions batch across clusters proportional to their
// speeds, by largest-remainder: each cluster gets the floor of its ideal
// share, leftover samples go to the largest fractional remainders (ties to
// the lower cluster index), and every cluster keeps at least one sample
// while the batch allows (stolen from the largest share). The result is a
// pure function of (batch, speeds) — deterministic at any worker count —
// and sums exactly to batch.
//
// With all speeds equal it reproduces a balanced split (shares differ by
// at most one), so homogeneous fleets are unaffected. A speed that is not
// positive, or not finite (NaN, +Inf), counts as 0: it has no share to
// apportion, and every other speed's share of an infinite total is NaN.
func LoadAwareShards(batch int, speeds []float64) []int {
	nc := len(speeds)
	if nc == 0 {
		return nil
	}
	total := 0.0
	for _, s := range speeds {
		total += usableSpeed(s)
	}
	shares := make([]int, nc)
	if total <= 0 {
		return EqualShards(batch, nc)
	}
	type rem struct {
		frac float64
		idx  int
	}
	rems := make([]rem, nc)
	assigned := 0
	for c, s := range speeds {
		ideal := float64(batch) * usableSpeed(s) / total
		shares[c] = int(ideal)
		rems[c] = rem{frac: ideal - float64(shares[c]), idx: c}
		assigned += shares[c]
	}
	// Hand the leftover samples to the largest remainders, lower index
	// first on ties (selection by repeated max keeps this allocation-light
	// and obviously deterministic; nc is at most a few hundred).
	for assigned < batch {
		best := -1
		for i := range rems {
			if rems[i].frac < 0 {
				continue
			}
			if best < 0 || rems[i].frac > rems[best].frac {
				best = i
			}
		}
		shares[rems[best].idx]++
		rems[best].frac = -1
		assigned++
		// More leftovers than clusters (all remainders spent): reset and
		// keep distributing round-robin by speed order.
		if assigned < batch {
			spent := true
			for i := range rems {
				if rems[i].frac >= 0 {
					spent = false
					break
				}
			}
			if spent {
				for c, s := range speeds {
					// A NaN or +Inf speed stays spent, as a negative one does.
					if !math.IsNaN(s) && !math.IsInf(s, 1) {
						rems[c] = rem{frac: s, idx: c}
					}
				}
			}
		}
	}
	// Min-one guarantee: a zero-share cluster would idle ng workers; steal
	// from the largest share while batch covers every cluster.
	if batch >= nc {
		for c := 0; c < nc; c++ {
			if shares[c] > 0 {
				continue
			}
			big := 0
			for i := 1; i < nc; i++ {
				if shares[i] > shares[big] {
					big = i
				}
			}
			if shares[big] > 1 {
				shares[big]--
				shares[c]++
			}
		}
	}
	return shares
}

// usableSpeed returns s where it is a positive finite speed, else 0.
func usableSpeed(s float64) float64 {
	if s > 0 && !math.IsInf(s, 1) {
		return s
	}
	return 0
}

// ShardStretch returns the synchronous-step stretch factor of a sharding:
// the maximum over clusters of (share_c / meanShare) / speed_c, i.e. how
// much longer the slowest cluster takes than a healthy equal-split cluster
// would. 1.0 means perfectly balanced on a healthy fleet; an equal split
// on a fleet with a 0.5-speed straggler cluster stretches to 2.0.
func ShardStretch(shares []int, speeds []float64) float64 {
	nc := len(shares)
	if nc == 0 {
		return 1
	}
	batch := 0
	for _, s := range shares {
		batch += s
	}
	if batch == 0 {
		return 1
	}
	mean := float64(batch) / float64(nc)
	worst := 0.0
	for c, sh := range shares {
		speed := 1.0
		if c < len(speeds) && speeds[c] > 0 {
			speed = speeds[c]
		}
		if r := float64(sh) / mean / speed; r > worst {
			worst = r
		}
	}
	return worst
}

// ImbalancePermille quantifies a sharding's residual imbalance in parts
// per thousand: (maxShare/minShare − 1) × 1000, computed over non-zero
// shares. 0 means perfectly even; integer-valued so telemetry can carry it
// through an atomic gauge without float races.
func ImbalancePermille(shares []int) int64 {
	min, max := 0, 0
	for _, s := range shares {
		if s <= 0 {
			continue
		}
		if min == 0 || s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if min == 0 {
		return 0
	}
	return int64(max-min) * 1000 / int64(min)
}

// LowerBoundBytes returns the dense per-worker communication floor for one
// layer: the minimum over the clustering menu of the no-reduction traffic
// volume. In the spirit of the Chen/Demmel communication lower bounds for
// CNNs, it is the fewest bytes any menu wiring must move for this layer
// with dense tiles — the yardstick the scenario matrix reports achieved
// bytes against. It reads only each entry's (Ng, Nc) wiring, at the
// paper's tile rule: reductions (activation prediction, zero-skipping)
// can push achieved traffic below this dense floor; conversely the
// time-optimal choice on a degraded fabric may move more.
func LowerBoundBytes(p conv.Params, batch int, menu []Strategy) int64 {
	best := int64(-1)
	for _, w := range menu {
		s := Strategy{Ng: w.Ng, Nc: w.Nc, Winograd: true}
		tr, err := s.Transform(p.K)
		if err != nil {
			continue
		}
		v := LayerVolumes(tr, p, batch, s)
		if t := v.Total(); best < 0 || t < best {
			best = t
		}
	}
	if best < 0 {
		return 0
	}
	return best
}
