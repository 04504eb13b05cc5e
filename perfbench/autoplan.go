package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/planner"
	"mptwino/internal/sim"
	"mptwino/internal/telemetry"
	"mptwino/internal/tensor"
)

// planNetKeys name the autoplan op's three networks in metric names.
var planNetKeys = []string{"alexnet", "vgg16", "seeded"}

// goldenDir holds the committed planner dumps, relative to the checkout
// root the benchmark runs from.
const goldenDir = "internal/planner/testdata"

// seededShapes are six catalog layers that neither golden network has:
// WRN-40-10's and ResNet-34's late stages. The seeded network runs them in
// a seeded order under seeded names, so the redistribution DP sees a new
// layer sequence on every seed while the search's work and the plan's
// simulated time barely move; a seed that also drew the shapes would swing
// model_us by more than its bound.
var seededShapes = []model.Layer{
	{P: conv.Params{In: 320, Out: 640, K: 3, Pad: 1, H: 8, W: 8}, Repeat: 1},
	{P: conv.Params{In: 640, Out: 640, K: 3, Pad: 1, H: 8, W: 8}, Repeat: 3},
	{P: conv.Params{In: 256, Out: 512, K: 3, Pad: 1, H: 7, W: 7}, Repeat: 1},
	{P: conv.Params{In: 512, Out: 512, K: 3, Pad: 1, H: 7, W: 7}, Repeat: 5},
	{P: conv.Params{In: 256, Out: 256, K: 3, Pad: 1, H: 14, W: 14}, Repeat: 2},
	{P: conv.Params{In: 320, Out: 320, K: 3, Pad: 1, H: 16, W: 16}, Repeat: 2},
}

func seededNet(seed uint64) model.Network {
	rng := tensor.NewRNG(seed)
	layers := append([]model.Layer(nil), seededShapes...)
	for i := len(layers) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		layers[i], layers[j] = layers[j], layers[i]
	}
	for i := range layers {
		layers[i].Name = fmt.Sprintf("s%d-l%d", seed%1000, i)
	}
	return model.Network{Name: fmt.Sprintf("seeded-%d", seed), Batch: 256, Layers: layers}
}

type autoplanInputs struct {
	nets   []model.Network // AlexNet, VGG-16, seeded
	golden [][]byte        // committed dumps of nets[0] and nets[1]
}

func autoplanInputsFor(seed uint64) (inputs, error) {
	in := &autoplanInputs{nets: []model.Network{model.AlexNet(), model.VGG16(), seededNet(seed)}}
	for _, f := range []string{"plan_alexnet.tsv", "plan_vgg16.tsv"} {
		b, err := os.ReadFile(filepath.Join(goldenDir, f))
		if err != nil {
			return nil, fmt.Errorf("planner golden: %w", err)
		}
		in.golden = append(in.golden, b)
	}
	return in, nil
}

func (in *autoplanInputs) build() (instance, error) {
	return &autoplanInst{in: in, sys: sim.DefaultSystem()}, nil
}

type autoplanInst struct {
	in     *autoplanInputs
	sys    sim.System
	seeded []byte // the warm-up op's seeded plan dump
}

type autoplanResult struct {
	plans  []planner.Plan
	golden [][]byte
	seeded []byte
}

func planTSV(p planner.Plan) []byte {
	var b bytes.Buffer
	_ = p.WriteTSV(&b) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

func (r *autoplanResult) check() error {
	for i, g := range r.golden {
		if !bytes.Equal(planTSV(r.plans[i]), g) {
			return fmt.Errorf("%s plan differs from %s golden", r.plans[i].Network, goldenDir)
		}
	}
	s := r.plans[2]
	if s.ExecSec > s.MenuExecSec {
		return fmt.Errorf("%s plan: ExecSec %v exceeds the menu's %v", s.Network, s.ExecSec, s.MenuExecSec)
	}
	if r.seeded != nil && !bytes.Equal(planTSV(s), r.seeded) {
		return fmt.Errorf("%s plan differs from the warm-up op's", s.Network)
	}
	return nil
}

// model sums the three plans' simulated iteration times and the
// per-worker bytes their chosen strategies move in one iteration.
func (r *autoplanResult) model() (float64, float64) {
	var us, b float64
	for _, p := range r.plans {
		us += p.ExecSec * 1e6
		for _, c := range p.Choices {
			b += float64(c.AchievedBytes) * float64(c.Repeat)
		}
	}
	return us, b / 1e6
}

func (t *autoplanInst) plan(tr *tracer, sys sim.System) result {
	r := &autoplanResult{golden: t.in.golden, seeded: t.seeded}
	for i, net := range t.in.nets {
		id := tr.begin("planner.build." + planNetKeys[i])
		r.plans = append(r.plans, planner.Build(net, planner.Options{System: sys}))
		tr.end(id)
	}
	return r
}

func (t *autoplanInst) op() (result, error) { return t.plan(nil, t.sys), nil }

func (t *autoplanInst) traced(tr *tracer, reg *telemetry.Registry) (result, error) {
	sys := t.sys
	sys.Metrics = reg
	return t.plan(tr, sys), nil
}

func (t *autoplanInst) calibrate(warm result) error {
	w := warm.(*autoplanResult)
	t.seeded = planTSV(w.plans[2])
	w.seeded = t.seeded
	return nil
}

// probe replays planner.Build's three stages from outside for every layer
// of the three networks: enumerate (planner.Candidates), bound every
// candidate (System.CommFloorSec), and run the oracle
// (System.SimulateLayerStrategy) on the anchors and on every candidate the
// bound keeps, as Build does. A call of either takes about a microsecond,
// too short to time alone, so each stage is one span per layer that
// counts its calls.
func (t *autoplanInst) probe(tr *tracer) {
	sys := t.sys
	cfg := sim.WMpFull // Build's default config class
	for _, net := range t.in.nets {
		for _, l := range net.Layers {
			id := tr.begin("planner.enumerate")
			cands := planner.Candidates(l, net.Batch, sys.Workers, true, sys.Reductions, false)
			tr.end(id)

			id = tr.begin("sim.floor")
			floors := make([]float64, len(cands))
			for i, c := range cands {
				floors[i] = sys.CommFloorSec(l, net.Batch, c.St)
			}
			tr.endN(id, len(cands))

			// Anchors lead the list, the menu wirings first; the best menu
			// anchor sets the pruning bar.
			na := 0
			for na < len(cands) && cands[na].Anchor {
				na++
			}
			menuN := min(len(comm.DefaultConfigs(sys.Workers)), na)
			best := 0.0
			calls := 0
			id = tr.begin("sim.oracle")
			for i, c := range cands {
				if !c.Anchor && floors[i] > best*planner.DefaultSlack {
					continue
				}
				sec := sys.SimulateLayerStrategy(l, net.Batch, cfg, c.St).TotalSec()
				calls++
				if i < menuN && (i == 0 || sec < best) {
					best = sec
				}
			}
			tr.endN(id, calls)
		}
	}
}

func (t *autoplanInst) perLayer(tr *tracer, reg *telemetry.Registry, ops int) map[string]float64 {
	s := newSpanStats(tr, ops)
	cands := reg.Counter("planner.candidates").Load()
	pruned := reg.Counter("planner.pruned").Load()
	out := map[string]float64{
		"planner.enumerate_us": s.perCallUS("planner.enumerate"),
		"sim.floor_us":         s.perCallUS("sim.floor"),
		"sim.oracle_us":        s.perCallUS("sim.oracle"),
		"planner.candidates":   float64(cands) / float64(ops),
		"planner.pruned_frac":  frac(pruned, cands),
	}
	for _, k := range planNetKeys {
		out["planner.build_ms."+k] = s.ms("planner.build." + k)
	}
	return out
}
