package traceview

import "fmt"

// Trace assertions — the machine-checkable form of claims like "this
// schedule hides at least 60% of communication behind compute". Because
// the inputs are deterministic, an assertion that passes once passes
// forever until the model genuinely changes, so these can gate CI without
// tolerance bands (the substrate for the LayerPipe overlap proofs).

// Assertions holds the enabled checks; negative values disable a check
// (the flag defaults in cmd/mpttrace).
type Assertions struct {
	// MinOverlap requires Total.OverlapFrac ≥ this in every phase lane
	// that has any communication.
	MinOverlap float64
	// MaxIdle caps Total.IdleShare in every phase lane.
	MaxIdle float64
	// MaxBoundRatio caps the achieved-vs-bound traffic ratio of every
	// layer row that joined planner gauges; at least one row must join.
	MaxBoundRatio float64
	// MaxCriticalCycles caps every phase lane's critical-path length.
	MaxCriticalCycles int64
}

// Unset returns the all-disabled assertion set.
func Unset() Assertions {
	return Assertions{MinOverlap: -1, MaxIdle: -1, MaxBoundRatio: -1, MaxCriticalCycles: -1}
}

// Any reports whether at least one check is enabled.
func (a Assertions) Any() bool {
	return a.MinOverlap >= 0 || a.MaxIdle >= 0 || a.MaxBoundRatio >= 0 || a.MaxCriticalCycles >= 0
}

// Check evaluates the assertions against the report, returning one
// message per violation (empty = all pass) in deterministic lane/row
// order. A report with no phase lane fails, as does MaxBoundRatio when no
// row joined planner bound bytes: an assertion with nothing to check
// would pass vacuously.
func Check(r *Report, a Assertions) []string {
	if len(r.Lanes) == 0 {
		return []string{"no phase lane to check"}
	}
	var fails []string
	joined := false
	for i := range r.Lanes {
		l := &r.Lanes[i]
		if a.MinOverlap >= 0 && l.Total.CommCycles > 0 && l.Total.OverlapFrac < a.MinOverlap {
			fails = append(fails, fmt.Sprintf(
				"lane %s/%s: overlap %.4f < required %.4f (hidden %d of %d comm cycles)",
				l.Process, l.Thread, l.Total.OverlapFrac, a.MinOverlap,
				l.Total.HiddenCycles, l.Total.CommCycles))
		}
		if a.MaxIdle >= 0 && l.Total.IdleShare > a.MaxIdle {
			fails = append(fails, fmt.Sprintf(
				"lane %s/%s: idle share %.4f > allowed %.4f (%d idle cycles)",
				l.Process, l.Thread, l.Total.IdleShare, a.MaxIdle, l.Total.IdleCycles))
		}
		if a.MaxCriticalCycles >= 0 && l.CriticalCycles > a.MaxCriticalCycles {
			fails = append(fails, fmt.Sprintf(
				"lane %s/%s: critical path %d cycles > allowed %d",
				l.Process, l.Thread, l.CriticalCycles, a.MaxCriticalCycles))
		}
		if a.MaxBoundRatio >= 0 {
			for _, row := range l.Rows {
				if row.BoundBytes == 0 {
					continue
				}
				joined = true
				if row.BoundRatio > a.MaxBoundRatio {
					fails = append(fails, fmt.Sprintf(
						"lane %s/%s layer %s: achieved/bound bytes %.4f > allowed %.4f",
						l.Process, l.Thread, row.Layer, row.BoundRatio, a.MaxBoundRatio))
				}
			}
		}
	}
	if a.MaxBoundRatio >= 0 && !joined {
		fails = append(fails, "no layer row joined planner bound bytes (pass the run's -metrics dump)")
	}
	return fails
}
