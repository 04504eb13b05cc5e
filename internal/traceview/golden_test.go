package traceview_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptwino/internal/model"
	"mptwino/internal/planner"
	"mptwino/internal/sim"
	"mptwino/internal/telemetry"
	"mptwino/internal/traceview"
)

var update = flag.Bool("update", false, "rewrite the attribution goldens in testdata")

// autoplanRun replicates the `mptsim -autoplan -trace -metrics-json`
// telemetry pipeline in process: build the per-layer plan (which publishes
// the achieved/bound gauges), execute it under the tracer, and return the
// live registry and tracer.
func autoplanRun(t *testing.T, net model.Network, par int) (*telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	s := sim.DefaultSystem()
	s.Parallel = par
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	s.Metrics = reg
	s.Trace = tracer
	cfg := defaultConfig(t)
	p := planner.Build(net, planner.Options{System: s, Config: cfg})
	if _, err := s.SimulateNetworkWithPlan(net, cfg, p.Strategies()); err != nil {
		t.Fatal(err)
	}
	return reg, tracer
}

// defaultConfig resolves w_mp++ — the mptsim -config default the CI
// autoplan job runs under.
func defaultConfig(t *testing.T) sim.SystemConfig {
	t.Helper()
	for _, c := range sim.AllConfigs() {
		if c.String() == "w_mp++" {
			return c
		}
	}
	t.Fatal("config w_mp++ not in sim.AllConfigs()")
	return 0
}

// reportText analyzes a run in process and renders the canonical text
// report — the same bytes `mptsim -trace-report` and `mpttrace report`
// write for this simulation.
func reportText(t *testing.T, reg *telemetry.Registry, tracer *telemetry.Tracer) []byte {
	t.Helper()
	run := traceview.FromTrace(tracer.Export())
	run.Metrics = reg.Snapshot()
	rep := traceview.Analyze(run, traceview.Options{})
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.Bytes()
}

// The committed goldens are the CI trace-gate contract: the attribution of
// the alexnet and vgg16 autoplan executions must reproduce byte-for-byte.
// Regenerate deliberately with `go test ./internal/traceview -run Golden -update`.
func TestAutoplanReportGoldens(t *testing.T) {
	nets := []struct {
		name string
		net  model.Network
	}{
		{"alexnet", model.AlexNet()},
		{"vgg16", model.VGG16()},
	}
	for _, n := range nets {
		t.Run(n.name, func(t *testing.T) {
			reg, tracer := autoplanRun(t, n.net, 0)
			got := reportText(t, reg, tracer)
			golden := filepath.Join("testdata", fmt.Sprintf("report_%s_autoplan.txt", n.name))
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("attribution report drifted from %s\n--- got ---\n%s", golden, got)
			}
		})
	}
}

// The acceptance bar for the whole engine: the vgg16 autoplan attribution
// must be bit-identical at host worker counts 1, 2, and 8 — model time is
// simulated cycles, so host parallelism must be invisible.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	var base []byte
	for _, par := range []int{1, 2, 8} {
		reg, tracer := autoplanRun(t, model.VGG16(), par)
		got := reportText(t, reg, tracer)
		if base == nil {
			base = got
			continue
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("parallel=%d: report bytes differ from parallel=1", par)
		}
	}
}

// Serializing the trace and metrics to their on-disk formats and parsing
// them back must reproduce the in-process analysis exactly — and the
// planner's achieved/bound gauges must survive the Snapshot → JSON →
// LoadMetrics → join round trip for both golden networks.
func TestGaugeJoinSurvivesSerialization(t *testing.T) {
	nets := []struct {
		name string
		net  model.Network
	}{
		{"alexnet", model.AlexNet()},
		{"vgg16", model.VGG16()},
	}
	for _, n := range nets {
		t.Run(n.name, func(t *testing.T) {
			reg, tracer := autoplanRun(t, n.net, 0)
			direct := reportText(t, reg, tracer)

			// On-disk round trip: trace JSON + metrics JSON.
			var traceBuf, metricsBuf bytes.Buffer
			if err := tracer.WriteJSON(&traceBuf); err != nil {
				t.Fatalf("trace WriteJSON: %v", err)
			}
			if err := reg.WriteJSON(&metricsBuf); err != nil {
				t.Fatalf("metrics WriteJSON: %v", err)
			}
			run, err := traceview.ParseTrace(&traceBuf)
			if err != nil {
				t.Fatalf("ParseTrace: %v", err)
			}
			run.Metrics, err = traceview.LoadMetrics(&metricsBuf)
			if err != nil {
				t.Fatalf("LoadMetrics: %v", err)
			}
			rep := traceview.Analyze(run, traceview.Options{})
			var buf bytes.Buffer
			if err := rep.WriteText(&buf); err != nil {
				t.Fatalf("WriteText: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), direct) {
				t.Fatalf("serialized round trip changed the report\n--- direct ---\n%s--- roundtrip ---\n%s", direct, buf.Bytes())
			}

			// The join itself: every planned layer row must carry the gauge
			// values the planner published.
			snap := reg.Snapshot()
			joined := 0
			for _, lane := range rep.Lanes {
				for _, row := range lane.Rows {
					a, okA := snap["planner.achieved_bytes."+row.Layer]
					b, okB := snap["planner.bound_bytes."+row.Layer]
					if !okA || !okB {
						continue
					}
					joined++
					if row.AchievedBytes != a || row.BoundBytes != b {
						t.Errorf("layer %s: joined %d/%d, gauges say %d/%d",
							row.Layer, row.AchievedBytes, row.BoundBytes, a, b)
					}
				}
			}
			if joined == 0 {
				t.Fatalf("no layer row joined the planner gauges")
			}
		})
	}
}

// Diffing a run against itself must be the all-zero table with exit-0
// semantics, even in -exact mode; diffing structurally different runs must
// regress.
func TestDiffIdenticalAndChangedRuns(t *testing.T) {
	regA, trA := autoplanRun(t, model.AlexNet(), 0)
	regB, trB := autoplanRun(t, model.AlexNet(), 0)
	analyze := func(reg *telemetry.Registry, tr *telemetry.Tracer) *traceview.Report {
		run := traceview.FromTrace(tr.Export())
		run.Metrics = reg.Snapshot()
		return traceview.Analyze(run, traceview.Options{})
	}
	repA, repB := analyze(regA, trA), analyze(regB, trB)

	d := traceview.Diff(repA, repB, traceview.DiffOptions{Exact: true})
	if !d.Identical || d.Regressions != 0 {
		var buf bytes.Buffer
		d.WriteText(&buf)
		t.Fatalf("identical runs: identical=%v regressions=%d\n%s", d.Identical, d.Regressions, buf.String())
	}
	for _, row := range d.Rows {
		if row.Delta != 0 {
			t.Fatalf("identical runs: nonzero delta on %s", row.Key)
		}
	}

	regC, trC := autoplanRun(t, model.VGG16(), 0)
	d2 := traceview.Diff(repA, analyze(regC, trC), traceview.DiffOptions{})
	if d2.Identical || d2.Regressions == 0 {
		t.Fatalf("different networks: identical=%v regressions=%d", d2.Identical, d2.Regressions)
	}
}

// Assertions must read the same report the text renderer shows: an
// impossible overlap bound fails, the observed bounds pass. An assertion
// with nothing to check fails instead of passing vacuously: on a report
// with no phase lane, and as a bound-ratio cap on a run whose rows joined
// no planner bound bytes.
func TestCheckAssertions(t *testing.T) {
	reg, tracer := autoplanRun(t, model.VGG16(), 0)
	run := traceview.FromTrace(tracer.Export())
	unjoined := traceview.Analyze(run, traceview.Options{})
	run.Metrics = reg.Snapshot()
	rep := traceview.Analyze(run, traceview.Options{})

	if traceview.Unset().Any() {
		t.Fatal("Unset must disable every assertion")
	}
	a := traceview.Unset()
	a.MinOverlap = 1.01 // unattainable
	if fails := traceview.Check(rep, a); len(fails) == 0 {
		t.Fatal("MinOverlap=1.01 must fail on a lane with communication")
	}
	a = traceview.Unset()
	a.MaxIdle = 1.0
	a.MinOverlap = 0.0
	if fails := traceview.Check(rep, a); len(fails) != 0 {
		t.Fatalf("trivial bounds must pass, got %v", fails)
	}
	empty := traceview.Analyze(traceview.FromTrace(telemetry.Trace{}), traceview.Options{})
	if fails := traceview.Check(empty, a); len(fails) != 1 || !strings.Contains(fails[0], "no phase lane") {
		t.Errorf("no phase lane: %q, want one failure naming it", fails)
	}

	a = traceview.Unset()
	a.MaxBoundRatio = 1e9
	if fails := traceview.Check(rep, a); len(fails) != 0 {
		t.Errorf("bound cap on joined rows: %q, want none", fails)
	}
	if fails := traceview.Check(unjoined, a); len(fails) != 1 ||
		!strings.Contains(fails[0], "no layer row joined planner bound bytes") {
		t.Errorf("bound cap without metrics: %q, want one failure naming the missing join", fails)
	}
}
