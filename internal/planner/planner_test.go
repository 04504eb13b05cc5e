package planner

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/model"
	"mptwino/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden plan dumps")

func planNets() []model.Network {
	return []model.Network{model.AlexNet(), model.VGG16()}
}

// planGoldens are the committed plan dumps: the default search on AlexNet
// and VGG-16, AlexNet under w_mp (anchors without reductions; it picks
// Ng = 32 cells on F(4×4)) and VGG-16 with the F(6×6) tile axis.
var planGoldens = []struct {
	file string
	net  model.Network
	opts Options // System is filled in by the test
}{
	{"plan_alexnet.tsv", model.AlexNet(), Options{}},
	{"plan_vgg16.tsv", model.VGG16(), Options{}},
	{"plan_alexnet_wmp.tsv", model.AlexNet(), Options{Config: sim.WMp}},
	{"plan_vgg16_wide.tsv", model.VGG16(), Options{AllowWideTiles: true}},
}

// TestPlanGolden pins the full plan dumps of planGoldens — the same bytes
// the CI autoplan job diffs `mptsim -autoplan` output against.
// Regenerate with `go test ./internal/planner -run Golden -update` after
// an intentional model change.
func TestPlanGolden(t *testing.T) {
	for _, g := range planGoldens {
		opts := g.opts
		opts.System = sim.DefaultSystem()
		p := Build(g.net, opts)
		var buf bytes.Buffer
		if err := p.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", path, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: plan dump drifted from golden; run with -update if intended\ngot:\n%s", path, buf.String())
		}
	}
}

// TestPlanBeatsMenu is the acceptance criterion: the plan's simulated
// total cycles never lose to the best fixed three-config menu result —
// both as the planner's own metrics (ExecSec vs MenuExecSec, a theorem
// of the dominance filter) and as independently executed by
// sim.SimulateNetworkWithPlan against sim.SimulateNetwork(WMpFull).
func TestPlanBeatsMenu(t *testing.T) {
	for _, net := range planNets() {
		sys := sim.DefaultSystem()
		p := Build(net, Options{System: sys})
		if p.ExecSec > p.MenuExecSec {
			t.Errorf("%s: plan exec %.3fus exceeds menu exec %.3fus", net.Name, p.ExecSec*1e6, p.MenuExecSec*1e6)
		}
		exec, err := sys.SimulateNetworkWithPlan(net, sim.WMpFull, p.Strategies())
		if err != nil {
			t.Fatal(err)
		}
		menu := sys.SimulateNetwork(net, sim.WMpFull)
		if exec.IterationSec > menu.IterationSec {
			t.Errorf("%s: executed plan %.3fus loses to menu %.3fus",
				net.Name, exec.IterationSec*1e6, menu.IterationSec*1e6)
		}
		if exec.IterationSec != p.ExecSec {
			t.Errorf("%s: executed plan %.6gs != plan ExecSec %.6gs", net.Name, exec.IterationSec, p.ExecSec)
		}
		if menu.IterationSec != p.MenuExecSec {
			t.Errorf("%s: menu sim %.6gs != plan MenuExecSec %.6gs", net.Name, menu.IterationSec, p.MenuExecSec)
		}
		t.Logf("%s: plan %.3fus menu %.3fus (%.2f%% faster), redist %.3fus",
			net.Name, exec.IterationSec*1e6, menu.IterationSec*1e6,
			100*(1-exec.IterationSec/menu.IterationSec), p.RedistSec*1e6)
	}
}

// TestPlanNeverPicksWideTileByDefault pins the safety gate: F(6×6,3×3)
// is training-unsafe (see internal/winograd stability tests), so the
// default search must never choose it — neither as an explicit TileM=6
// nor via the paper rule (which tops out at m=4).
func TestPlanNeverPicksWideTileByDefault(t *testing.T) {
	for _, net := range planNets() {
		p := Build(net, Options{System: sim.DefaultSystem()})
		for i, c := range p.Choices {
			l := net.Layers[i]
			if !c.St.Winograd {
				continue
			}
			if tr, err := c.St.Transform(l.P.K); err != nil || tr.M >= 6 {
				t.Errorf("%s/%s: default plan chose %v (%v) for %+v", net.Name, l.Name, tr, err, c.St)
			}
		}
	}
}

// TestPlanBeatsMenuWideTiles re-runs the acceptance criterion with the
// F(6×6,3×3) axis enabled: widening the search space can only improve
// (or match) the plan, and the executed plan must still track ExecSec.
func TestPlanBeatsMenuWideTiles(t *testing.T) {
	for _, net := range planNets() {
		sys := sim.DefaultSystem()
		p := Build(net, Options{System: sys, AllowWideTiles: true})
		if p.ExecSec > p.MenuExecSec {
			t.Errorf("%s: wide-tile plan exec %.3fus exceeds menu exec %.3fus",
				net.Name, p.ExecSec*1e6, p.MenuExecSec*1e6)
		}
		base := Build(net, Options{System: sys})
		if p.ExecSec > base.ExecSec {
			t.Errorf("%s: wide-tile plan %.3fus worse than default plan %.3fus — wider axis must not regress",
				net.Name, p.ExecSec*1e6, base.ExecSec*1e6)
		}
		exec, err := sys.SimulateNetworkWithPlan(net, sim.WMpFull, p.Strategies())
		if err != nil {
			t.Fatal(err)
		}
		if exec.IterationSec != p.ExecSec {
			t.Errorf("%s: executed wide-tile plan %.6gs != plan ExecSec %.6gs", net.Name, exec.IterationSec, p.ExecSec)
		}
	}
}

// TestPlanDeterminism cross-checks byte-identical plans at host worker
// counts 1, 2 and 8 — the repo-wide bit-determinism contract — under the
// default search, w_mp and the wide tile axis, and on a one-layer
// network, which leaves every worker but one without a layer.
func TestPlanDeterminism(t *testing.T) {
	conv2 := model.AlexNet()
	conv2.Name, conv2.Layers = "AlexNet-conv2", conv2.Layers[:1]
	for _, net := range append(planNets(), conv2) {
		for _, opts := range []Options{{}, {Config: sim.WMp}, {AllowWideTiles: true}} {
			var ref []byte
			for _, w := range []int{1, 2, 8} {
				opts.System = sim.DefaultSystem()
				opts.System.Parallel = w
				var buf bytes.Buffer
				if err := Build(net, opts).WriteTSV(&buf); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = buf.Bytes()
				} else if !bytes.Equal(ref, buf.Bytes()) {
					t.Fatalf("%s %s wide=%v: plan differs between workers=1 and workers=%d",
						net.Name, opts.config(), opts.AllowWideTiles, w)
				}
			}
		}
	}
}

// TestBuildAllocs guards Build's allocations on AlexNet at one host
// worker, so that enumerating each layer into a fresh or regrown
// candidate list cannot come back unnoticed: that costs one allocation
// per doubling, nine or ten a layer for AlexNet's 152–301 candidates. The
// bound, by allocation site (counted at runtime.MemProfileRate = 1):
//   - 3 per oracle call, a layer's Candidates − Pruned: the menu list
//     comm.LowerBoundBytes reads, which comm.DefaultConfigs grows by
//     append to capacities 1, 2 and 4 (153 here);
//   - 16 per layer: the anchor menu and its list (4), the anchor nodes
//     and times (2), the node list's growth, both DPs' rows (4 after the
//     first layer), the two gauge names (2) and, on a 5×5 kernel, the
//     error of its missing F(4×4) transform (2) (57 here);
//   - 48 per Build: the enumerator with its factorization list and menu
//     size (13), the closure, the layer table, the buffer table, the one
//     candidate buffer, the System the closure shares (5), the node
//     tables (2), both DPs' fixed tables (6) and the choice list (3) (29
//     here).
//
// AlexNet's 51 oracle calls and 4 layers give 265, against 239 made.
func TestBuildAllocs(t *testing.T) {
	net := model.AlexNet()
	opts := Options{System: sim.DefaultSystem()}
	opts.System.Parallel = 1
	calls := 0
	for _, c := range Build(net, opts).Choices {
		calls += c.Candidates - c.Pruned
	}
	bound := float64(3*calls + 16*len(net.Layers) + 48)
	if got := testing.AllocsPerRun(5, func() { Build(net, opts) }); got > bound {
		t.Errorf("Build(AlexNet) at one worker: %v allocations, bound %v for %d oracle calls", got, bound, calls)
	}
}

// TestBuildEmptyNetwork: a network with no layers plans to no choices and
// zero times.
func TestBuildEmptyNetwork(t *testing.T) {
	p := Build(model.Network{Name: "empty", Batch: 8}, Options{System: sim.DefaultSystem()})
	if len(p.Choices) != 0 || p.ExecSec != 0 || p.MenuExecSec != 0 ||
		p.TotalSec != 0 || p.RedistSec != 0 || p.MenuTotalSec != 0 {
		t.Fatalf("empty network: %+v, want no choices and zero times", p)
	}
	if err := p.WriteTSV(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestCandidatesValid is the property test: every emitted factorization
// multiplies to the module count, respects the per-layer feasibility
// constraints, and its shard ranges cover the batch and filter ranges
// exactly once.
func TestCandidatesValid(t *testing.T) {
	const p = 256
	for _, net := range planNets() {
		for _, l := range net.Layers {
			cands := Candidates(l, net.Batch, p, true, comm.PaperReductions(), false)
			if len(cands) == 0 {
				t.Fatalf("%s: no candidates", l.Name)
			}
			for _, c := range cands {
				st := c.St
				if got := st.Workers(); got != p {
					t.Fatalf("%s: %+v uses %d workers, want %d", l.Name, st, got, p)
				}
				if st.Nc > net.Batch || st.FilterShards() > l.P.Out || st.ChannelShards() > l.P.In {
					t.Fatalf("%s: infeasible candidate %+v", l.Name, st)
				}
				// Shard ranges [i·n/parts, (i+1)·n/parts) tile [0, n)
				// exactly once for every sharded axis.
				for _, ax := range []struct {
					n, parts int
				}{
					{net.Batch, st.Nc},
					{l.P.Out, st.FilterShards()},
					{l.P.In, st.ChannelShards()},
				} {
					end := 0
					for i := 0; i < ax.parts; i++ {
						lo := i * ax.n / ax.parts
						hi := (i + 1) * ax.n / ax.parts
						if lo != end || hi < lo {
							t.Fatalf("%s: %+v axis %d/%d: shard %d is [%d,%d), want start %d",
								l.Name, st, ax.n, ax.parts, i, lo, hi, end)
						}
						end = hi
					}
					if end != ax.n {
						t.Fatalf("%s: %+v shards cover [0,%d), want [0,%d)", l.Name, st, end, ax.n)
					}
				}
			}
		}
	}
}

// TestPruningSound verifies the lower bound never eliminates a candidate
// that would have won: the chosen strategy's simulated time is no worse
// than every pruned candidate's communication floor (which bounds that
// candidate's achievable time from below).
func TestPruningSound(t *testing.T) {
	net := model.AlexNet()
	sys := sim.DefaultSystem()
	for _, l := range net.Layers {
		cands := Candidates(l, net.Batch, sys.Workers, true, sys.Reductions, false)
		bestSim := 0.0
		for _, c := range cands {
			r := sys.SimulateLayerStrategy(l, net.Batch, sim.WMpFull, c.St)
			if bestSim == 0 || r.TotalSec() < bestSim {
				bestSim = r.TotalSec()
			}
			floor := sys.CommFloorSec(l, net.Batch, c.St)
			if floor > r.TotalSec()*1.000001 {
				t.Errorf("%s: floor %.ger exceeds simulated %.6g for %+v", l.Name, floor, r.TotalSec(), c.St)
			}
		}
	}
}

// TestValidateNoCPlan replays the chosen plan's fabrics at flit level
// and checks the analytic model tracks the simulator within the same
// generous factors figures.NoCValidation pins.
func TestValidateNoCPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("flit-level simulation")
	}
	p := Build(model.AlexNet(), Options{System: sim.DefaultSystem()})
	checks := ValidateNoC(p)
	if len(checks) == 0 {
		t.Fatal("no fabrics to validate")
	}
	for _, c := range checks {
		lo, hi := 0.8, 1.6
		if c.Pattern == "cell-a2a" {
			lo, hi = 0.9, 4.5
		}
		if c.Ratio < lo || c.Ratio > hi {
			t.Errorf("%s size=%d: sim/model ratio %.2f outside [%.1f, %.1f] (model %.2fus sim %.2fus)",
				c.Pattern, c.Size, c.Ratio, lo, hi, c.ModelUS, c.SimUS)
		}
	}
}
