package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"mptwino/internal/planner"
	"mptwino/internal/tensor"
)

// corruption turns one valid op output into a wrong one; the check must
// fail with an error mentioning want.
type corruption struct {
	name, want string
	apply      func(result) result
}

var corruptions = map[string][]corruption{
	"train-alexnet": {
		{"non-finite loss", "loss NaN", func(r result) result {
			c := *r.(*trainResult)
			c.loss = math.NaN()
			return &c
		}},
		{"loss off the Nc = 1 reference", "reference", func(r result) result {
			c := *r.(*trainResult)
			c.loss *= 1.01
			return &c
		}},
	},
	"infer-pred": {
		{"one output bit flipped", "ReLU(Fprop)", func(r result) result {
			c := *r.(*inferResult)
			c.outs = append([]*tensor.Tensor(nil), c.outs...)
			y := c.outs[len(c.outs)-1].Clone()
			y.Data[0] = math.Float32frombits(math.Float32bits(y.Data[0]) ^ 1)
			c.outs[len(c.outs)-1] = y
			return &c
		}},
		{"skip count changed", "skipped", func(r result) result {
			c := *r.(*inferResult)
			c.skips = append([]int64(nil), c.skips...)
			c.skips[0]++
			return &c
		}},
	},
	"autoplan": {
		{"AlexNet plan off its golden", "golden", func(r result) result {
			return withPlan(r, 0, func(p *planner.Plan) { p.Choices[0].LayerSec += 1e-6 })
		}},
		{"seeded plan slower than the menu", "exceeds", func(r result) result {
			return withPlan(r, 2, func(p *planner.Plan) { p.ExecSec = 2 * p.MenuExecSec })
		}},
		{"seeded plan changed between ops", "warm-up", func(r result) result {
			return withPlan(r, 2, func(p *planner.Plan) { p.Choices[0].Candidates++ })
		}},
	},
	"noc-hybrid": {
		{"message not delivered", "delivered", func(r result) result {
			c := *r.(*nocResult)
			c.delivered--
			return &c
		}},
		{"flit dropped", "dropped", func(r result) result {
			c := *r.(*nocResult)
			c.stats.DroppedFlits = 1
			return &c
		}},
		{"cycle count changed", "cycles", func(r result) result {
			c := *r.(*nocResult)
			c.stats.Cycles++
			return &c
		}},
	},
}

// withPlan returns a copy of an autoplan result whose plan i was edited.
func withPlan(r result, i int, edit func(*planner.Plan)) result {
	c := *r.(*autoplanResult)
	c.plans = append([]planner.Plan(nil), c.plans...)
	p := c.plans[i]
	p.Choices = append([]planner.LayerChoice(nil), p.Choices...)
	edit(&p)
	c.plans[i] = p
	return &c
}

// chdirRoot runs the test from the checkout root, where the benchmark
// runs and the planner goldens resolve.
func chdirRoot(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

// TestChecksCountCorruptOutputs runs a real warm-up op and a real op of
// every workload, then feeds the op's check one corrupted output at a
// time and asserts the loop's tally counts it as failed.
func TestChecksCountCorruptOutputs(t *testing.T) {
	chdirRoot(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.inputs(1)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := in.build()
			if err != nil {
				t.Fatal(err)
			}
			warm, err := inst.op()
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.calibrate(warm); err != nil {
				t.Fatal(err)
			}
			res, err := inst.op()
			if err != nil {
				t.Fatal(err)
			}
			var tl tally
			tl.record(warm.check())
			tl.record(res.check())
			if tl.failed != 0 {
				t.Fatalf("valid ops counted as failed: %s", tl.first)
			}
			cs := corruptions[w.name]
			if len(cs) == 0 {
				t.Fatal("no corruptions for this workload")
			}
			for _, c := range cs {
				before := tl.failed
				err := c.apply(res).check()
				tl.record(err)
				if tl.failed != before+1 {
					t.Errorf("%s: op not counted as failed", c.name)
					continue
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: failed for another reason: %v", c.name, err)
				}
			}
			if err := res.check(); err != nil {
				t.Errorf("corrupting copies changed the original output: %v", err)
			}
		})
	}
}

// TestTrainReplayMatchesTrainStep pins the traced run's premise: the
// replay through Engine calls is TrainStepMSE, bit for bit.
func TestTrainReplayMatchesTrainStep(t *testing.T) {
	in, err := trainInputsFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.(replayChecker).checkReplay(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the names and units the program
// prints in step with the benchmark's declaration.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got [][2]string, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i][0] != want[i].Name || got[i][1] != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, decl.EndToEnd)
	same("per_layer", perLayerMetrics, decl.PerLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}
