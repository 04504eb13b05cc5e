package traceview

import (
	"sort"
	"strings"
)

// Options configures an analysis pass.
type Options struct {
	// TopK bounds the critical-path contributor list per lane (default 5).
	TopK int
}

func (o Options) topK() int {
	if o.TopK > 0 {
		return o.TopK
	}
	return 5
}

// LayerRow is one layer's attribution within a lane. All cycle counts are
// interval measures over the layer's categorized child spans, so the
// arithmetic identities hold exactly: Compute + Exposed + Idle = Wall and
// Hidden + Exposed = Comm.
type LayerRow struct {
	Layer string

	WallCycles    int64 // Σ phase-span durations (fwd + bwd)
	ComputeCycles int64 // |union of tv=compute spans|
	CommCycles    int64 // |union of tv=comm.* spans|
	TileCycles    int64 // Σ tv=comm.tile durations
	CollCycles    int64 // Σ tv=comm.coll durations
	HiddenCycles  int64 // |compute ∩ comm| — comm hidden behind compute
	ExposedCycles int64 // Comm − Hidden — comm the compute engines wait on
	IdleCycles    int64 // Wall − |compute ∪ comm| — timeline gaps

	// OverlapFrac is Hidden/Comm: the fraction of communication hidden
	// behind compute (the LayerPipe proof metric). 0 when Comm is 0.
	OverlapFrac float64
	// ComputeShare/CommShare/IdleShare split the wall exactly:
	// Compute/Wall + Exposed/Wall + Idle/Wall = 1.
	ComputeShare float64
	CommShare    float64
	IdleShare    float64

	// AchievedBytes/BoundBytes join the planner's per-layer gauges
	// (planner.achieved_bytes.<layer> / planner.bound_bytes.<layer>) from
	// the run's metrics snapshot; zero when no snapshot is attached or the
	// layer was not planned. BoundRatio is their quotient — the
	// Chen/Demmel achieved-vs-lower-bound communication ratio.
	AchievedBytes int64
	BoundBytes    int64
	BoundRatio    float64
}

// PathSpan is one span on a lane's critical path.
type PathSpan struct {
	Name   string
	TV     string
	Start  int64
	Cycles int64
}

// Contributor aggregates critical-path time by span identity.
type Contributor struct {
	Name   string
	TV     string
	Cycles int64
	Share  float64 // of the lane's critical-path cycles
}

// LaneReport is the full attribution of one phase lane (a lane holding
// tv=phase root spans, i.e. a per-config sim timeline).
type LaneReport struct {
	PID, TID int
	Process  string
	Thread   string

	Rows  []LayerRow // per layer, in first-appearance order
	Total LayerRow   // column sums (Layer = "TOTAL")

	// CriticalCycles is the length of the longest dependency chain of
	// leaf spans through the lane; Critical lists the chain in time order
	// and Contributors the top-k chain members by cycles.
	CriticalCycles int64
	Critical       []PathSpan
	Contributors   []Contributor
}

// ProcessSummary compacts the lanes of one non-phase process (e.g. sim's
// fault-recovery row).
type ProcessSummary struct {
	PID        int
	Process    string
	Lanes      int
	Spans      int
	Instants   int
	BusyCycles int64 // Σ per-lane |union of spans|
	Categories []CategoryCycles
}

// CategoryCycles is one tv category's total span time within a process.
type CategoryCycles struct {
	TV     string
	Spans  int
	Cycles int64
}

// Report is the analysis result of one run.
type Report struct {
	Lanes     []LaneReport
	Processes []ProcessSummary
}

// Analyze computes the attribution report of a parsed run.
func Analyze(run *Run, opt Options) *Report {
	rep := &Report{}
	type procAgg struct {
		summary ProcessSummary
		cats    map[string]*CategoryCycles
	}
	procs := map[int]*procAgg{}
	var procOrder []int

	for _, lane := range run.Lanes {
		if hasPhaseRoots(lane) {
			rep.Lanes = append(rep.Lanes, analyzeLane(lane, run.Metrics, opt))
			continue
		}
		agg, ok := procs[lane.PID]
		if !ok {
			agg = &procAgg{cats: map[string]*CategoryCycles{}}
			agg.summary = ProcessSummary{PID: lane.PID, Process: lane.Process}
			procs[lane.PID] = agg
			procOrder = append(procOrder, lane.PID)
		}
		agg.summary.Lanes++
		agg.summary.Spans += len(lane.Spans)
		agg.summary.Instants += lane.Instants
		agg.summary.BusyCycles += length(spansToSet(lane.Spans))
		for _, s := range lane.Spans {
			tv := s.TV
			if tv == "" {
				tv = "untagged"
			}
			c, ok := agg.cats[tv]
			if !ok {
				c = &CategoryCycles{TV: tv}
				agg.cats[tv] = c
			}
			c.Spans++
			c.Cycles += s.Dur
		}
	}

	sort.Ints(procOrder)
	for _, pid := range procOrder {
		agg := procs[pid]
		names := make([]string, 0, len(agg.cats))
		for tv := range agg.cats {
			names = append(names, tv)
		}
		sort.Strings(names)
		for _, tv := range names {
			agg.summary.Categories = append(agg.summary.Categories, *agg.cats[tv])
		}
		rep.Processes = append(rep.Processes, agg.summary)
	}
	return rep
}

// hasPhaseRoots reports whether the lane carries layer-phase root spans.
func hasPhaseRoots(l Lane) bool {
	for _, s := range l.Spans {
		if s.TV == "phase" {
			return true
		}
	}
	return false
}

// analyzeLane builds one phase lane's attribution and critical path.
func analyzeLane(lane Lane, metrics map[string]int64, opt Options) LaneReport {
	lr := LaneReport{PID: lane.PID, TID: lane.TID, Process: lane.Process, Thread: lane.Thread}

	// Group spans by layer key, preserving first-appearance order. Roots
	// (tv=phase) define the wall; categorized children define busy time.
	type group struct {
		roots    []Span
		children []Span
	}
	groups := map[string]*group{}
	var order []string
	keyOf := func(s Span) string {
		if s.Layer != "" {
			return s.Layer
		}
		return s.Name
	}
	for _, s := range lane.Spans {
		k := keyOf(s)
		g, ok := groups[k]
		if !ok {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		if s.TV == "phase" || (s.TV == "" && s.Parent == "") {
			g.roots = append(g.roots, s)
		} else {
			g.children = append(g.children, s)
		}
	}

	var leaves []Span
	for _, k := range order {
		g := groups[k]
		row := attributeGroup(k, g.roots, g.children)
		joinBounds(&row, metrics)
		lr.Rows = append(lr.Rows, row)
		if len(g.children) > 0 {
			leaves = append(leaves, g.children...)
		} else {
			leaves = append(leaves, g.roots...)
		}
	}
	lr.Total = sumRows(lr.Rows)
	lr.CriticalCycles, lr.Critical = criticalPath(leaves)
	lr.Contributors = contributors(lr.Critical, lr.CriticalCycles, opt.topK())
	return lr
}

// attributeGroup computes one layer's interval attribution.
func attributeGroup(layer string, roots, children []Span) LayerRow {
	row := LayerRow{Layer: layer}
	for _, r := range roots {
		row.WallCycles += r.Dur
	}
	var computeSpans, commSpans []Span
	for _, c := range children {
		switch {
		case c.TV == "compute":
			computeSpans = append(computeSpans, c)
		case strings.HasPrefix(c.TV, "comm."):
			commSpans = append(commSpans, c)
			if c.TV == "comm.tile" {
				row.TileCycles += c.Dur
			}
			if c.TV == "comm.coll" {
				row.CollCycles += c.Dur
			}
		}
	}
	compute := spansToSet(computeSpans)
	comm := spansToSet(commSpans)
	row.ComputeCycles = length(compute)
	row.CommCycles = length(comm)
	row.HiddenCycles = length(intersect(compute, comm))
	row.ExposedCycles = row.CommCycles - row.HiddenCycles
	if len(children) > 0 {
		covered := row.ComputeCycles + row.ExposedCycles // |compute ∪ comm|
		if idle := row.WallCycles - covered; idle > 0 {
			row.IdleCycles = idle
		}
	}
	if row.CommCycles > 0 {
		row.OverlapFrac = float64(row.HiddenCycles) / float64(row.CommCycles)
	}
	if row.WallCycles > 0 {
		row.ComputeShare = float64(row.ComputeCycles) / float64(row.WallCycles)
		row.CommShare = float64(row.ExposedCycles) / float64(row.WallCycles)
		row.IdleShare = float64(row.IdleCycles) / float64(row.WallCycles)
	}
	return row
}

// joinBounds merges the planner's achieved-vs-bound byte gauges for the
// row's layer out of the metrics snapshot.
func joinBounds(row *LayerRow, metrics map[string]int64) {
	a, okA := metrics["planner.achieved_bytes."+row.Layer]
	b, okB := metrics["planner.bound_bytes."+row.Layer]
	if !okA || !okB {
		return
	}
	row.AchievedBytes = a
	row.BoundBytes = b
	if row.BoundBytes > 0 {
		row.BoundRatio = float64(row.AchievedBytes) / float64(row.BoundBytes)
	}
}

// sumRows folds layer rows into the TOTAL row.
func sumRows(rows []LayerRow) LayerRow {
	t := LayerRow{Layer: "TOTAL"}
	for _, r := range rows {
		t.WallCycles += r.WallCycles
		t.ComputeCycles += r.ComputeCycles
		t.CommCycles += r.CommCycles
		t.TileCycles += r.TileCycles
		t.CollCycles += r.CollCycles
		t.HiddenCycles += r.HiddenCycles
		t.ExposedCycles += r.ExposedCycles
		t.IdleCycles += r.IdleCycles
		t.AchievedBytes += r.AchievedBytes
		t.BoundBytes += r.BoundBytes
	}
	if t.CommCycles > 0 {
		t.OverlapFrac = float64(t.HiddenCycles) / float64(t.CommCycles)
	}
	if t.WallCycles > 0 {
		t.ComputeShare = float64(t.ComputeCycles) / float64(t.WallCycles)
		t.CommShare = float64(t.ExposedCycles) / float64(t.WallCycles)
		t.IdleShare = float64(t.IdleCycles) / float64(t.WallCycles)
	}
	if t.BoundBytes > 0 {
		t.BoundRatio = float64(t.AchievedBytes) / float64(t.BoundBytes)
	}
	return t
}
