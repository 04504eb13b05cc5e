package planner

import (
	"mptwino/internal/noc"
	"mptwino/internal/sim"
)

// ValidateNoC replays the plan's chosen fabrics on the flit-level
// network simulator — the checks figures.NoCValidation runs on the fixed
// (16,16) grid, driven by the plan. Each distinct cell size gets a
// sim.CellCheck of 2 KB per pair (tile scatter/gather and partial-sum
// traffic), and each distinct cluster count gets a sim.RingCheck of a
// 64 KB message (weight gradients), scaled down so flit-level runs stay
// tractable; both model and simulator are linear in message size in this
// regime. Rings larger than 16 members are sampled at 16 — the per-hop
// model error the check guards against does not grow with ring length.
// Deterministic: checks appear in plan order, one per distinct size.
func ValidateNoC(p Plan) []sim.NoCCheck {
	cfg := noc.DefaultConfig()
	var out []sim.NoCCheck
	seenCell := make(map[int]bool)
	seenRing := make(map[int]bool)

	for _, ch := range p.Choices {
		if d := ch.St.Cell(); d > 1 && !seenCell[d] {
			seenCell[d] = true
			out = append(out, sim.CellCheck(cfg, d, 2*1024))
		}
		n := min(ch.St.Nc, 16)
		if n > 1 && !seenRing[n] {
			seenRing[n] = true
			out = append(out, sim.RingCheck(cfg, n, 64*1024))
		}
	}
	return out
}
