// Command perfbench is the repository's host-time benchmark. It runs one
// workload as a single-process closed loop (one client; the next op starts
// when the previous one ends), checks every op's output, and prints its
// metrics as one JSON line. With -trace 1 it instead alternates untraced
// ops with traced ones that time every call into the layers from outside
// and reports per-layer metrics. See README.md in this directory.
//
//	bash perfbench/run.sh --workload train-alexnet --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"mptwino/internal/parallel"
	"mptwino/internal/telemetry"
	"mptwino/internal/tensor"
)

// result is one op's output, checked after the op's clock has stopped.
type result interface {
	check() error
	// model returns the op's simulated time on the modelled machine (µs)
	// and its modelled inter-module traffic (MB).
	model() (us, mb float64)
}

// instance is one from-scratch construction of a workload.
type instance interface {
	op() (result, error)
	// traced runs the same op with a span around every layer call; reg is
	// the telemetry registry attached for the op's duration.
	traced(tr *tracer, reg *telemetry.Registry) (result, error)
	// calibrate records, from the warm-up op, the references later ops are
	// checked against. It runs after the set-up clock has stopped.
	calibrate(warm result) error
	// perLayer derives the workload's per-layer metrics from a traced run
	// of ops traced ops.
	perLayer(tr *tracer, reg *telemetry.Registry, ops int) map[string]float64
}

// prober is an instance that times extra public calls after each traced
// op, outside the op's span (the pass an op does not run, or calls too
// fine-grained to time inside one).
type prober interface {
	probe(tr *tracer)
}

// inputs holds a workload's seed-derived inputs and check references.
type inputs interface {
	build() (instance, error)
}

// replayChecker is implemented by inputs whose traced op replays the op
// through finer public calls; the traced run proves the replay equal to
// the op before measuring it.
type replayChecker interface {
	checkReplay() error
}

type workload struct {
	name   string
	setups int // from-scratch constructions per run; setup_s is their median
	inputs func(seed uint64) (inputs, error)
}

var workloads = []workload{
	{"train-alexnet", 7, trainInputsFor},
	{"infer-pred", 7, inferInputsFor},
	{"autoplan", 15, autoplanInputsFor},
	{"noc-hybrid", 7, nocInputsFor},
}

// spansDir is where the traced run writes its spans, under the build
// directory run.sh keeps in the checkout.
const spansDir = ".bench_build/spans"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: train-alexnet, infer-pred, autoplan or noc-hybrid")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of train-alexnet, infer-pred, autoplan, noc-hybrid), -seconds > 0 and -trace 0|1\n")
		return 2
	}

	// Pin both worker knobs to the CPUs this process may use, so a run
	// never depends on the caller's environment.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	parallel.SetDefaultWorkers(nproc)

	rep, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if rep.tr != nil {
		path, err := rep.tr.write(spansDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.info["spans_file"] = path
	}
	rep.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.info["mptwino_workers"] = parallel.DefaultWorkers()
	rep.info["nproc"] = nproc
	rep.info["go_version"] = runtime.Version()
	rep.info["gemm_kernel"] = tensor.GemmKernel()
	rep.info["cpu_features"] = tensor.CPUFeatures()
	rep.info["workload"] = w.name
	rep.info["seed"] = *seed
	rep.info["seconds"] = *seconds
	rep.info["trace"] = *trace

	info, err := json.Marshal(map[string]any{"info": rep.info})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(info))
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayerMetrics name every metric the benchmark reports,
// with its unit, in the order BENCHMARK.json lists them.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"op_ms.p50", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms.p50", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"rss_mb", "MB"},
	{"model_us", "sim_us"},
	{"model_mb", "MB"},
}

var alexLayers = []string{"conv2", "conv3", "conv4", "conv5"}

var perLayerMetrics = func() [][2]string {
	var out [][2]string
	each := func(prefix, unit string, layers []string) {
		for _, l := range layers {
			out = append(out, [2]string{prefix + "." + l, unit})
		}
	}
	each("mpt.fprop_ms", "ms", alexLayers)
	each("mpt.bprop_ms", "ms", alexLayers[1:])
	each("mpt.update_ms", "ms", alexLayers)
	out = append(out, [][2]string{
		{"mpt.sgd_ms", "ms"},
		{"mpt.glue_ms", "ms"},
		{"mpt.alloc_mb.fprop", "MB"},
		{"mpt.alloc_mb.bprop", "MB"},
		{"mpt.alloc_mb.update", "MB"},
		{"mpt.alloc_mb.fprop_relu", "MB"},
		{"tensor.gemm_gflop", "GFLOP"},
	}...)
	each("mpt.fprop_relu_ms", "ms", alexLayers)
	each("quant.predict_ms", "ms", alexLayers)
	out = append(out, [2]string{"quant.skip_frac", "frac"})
	each("quant.skip_frac", "frac", alexLayers)
	each("planner.build_ms", "ms", planNetKeys)
	out = append(out, [][2]string{
		{"planner.enumerate_us", "us"},
		{"sim.floor_us", "us"},
		{"sim.oracle_us", "us"},
		{"planner.candidates", "count"},
		{"planner.pruned_frac", "frac"},
		{"noc.new_ms", "ms"},
		{"noc.run_ms", "ms"},
		{"noc.cycles", "cycles"},
		{"noc.flit_hops", "count"},
		{"noc.host_us_per_cycle", "us"},
		{"go.gc_per_op", "count"},
		{"go.gc_cpu_frac", "frac"},
		{"env.steal_frac", "frac"},
		{"env.canary_ms", "ms"},
		{"trace_overhead_frac", "frac"},
	}...)
	return out
}()

type report struct {
	attempted, failed int
	metrics           map[string]metric
	info              map[string]any
	tr                *tracer
}

// tally counts checked ops and keeps the first failure for the report.
type tally struct {
	attempted, failed int
	first             string
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == "" {
			t.first = err.Error()
		}
	}
}

// opSample is one op's cost as the loop measured it.
type opSample struct {
	wallMS, cpuMS float64
	alloc         uint64
	traced        bool
}

func measure(w *workload, seed uint64, window time.Duration, traced bool) (*report, error) {
	in, err := w.inputs(seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	var t tally
	if rc, ok := in.(replayChecker); ok && traced {
		t.record(rc.checkReplay())
	}

	// Set-up: each construction starts from a collected heap returned to
	// the OS, so every one pays first-touch page faults, and ends when its
	// warm-up op returns; nothing carries over between constructions.
	setupS := make([]float64, w.setups)
	var inst instance
	ss0, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	for i := range setupS {
		inst = nil
		debug.FreeOSMemory()
		t0 := now()
		next, err := in.build()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		warm, err := next.op()
		setupS[i] = now().Sub(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: warm-up op: %w", i, err)
		}
		if err := next.calibrate(warm); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		t.record(warm.check())
		inst = next
	}
	ss1, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	setupSteal := stolenShare(ss0, ss1)

	var tr *tracer
	var reg *telemetry.Registry
	if traced {
		tr = newTracer()
		reg = telemetry.NewRegistry()
	}
	pr, _ := inst.(prober)

	var samples []opSample
	var modelUS, modelMB []float64
	runtime.GC()
	cs0, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	g0 := readGoStats()
	start := now()
	for {
		tracedOp := traced && len(samples)%2 == 1
		var res result
		c0, a0, t0 := cpuTime(), heapAllocBytes(), now()
		if tracedOp {
			tensor.Attach(reg)
			id := tr.begin("op")
			res, err = inst.traced(tr, reg)
			tr.end(id)
			tensor.Attach(nil)
		} else {
			res, err = inst.op()
		}
		t1 := now()
		a1, c1 := heapAllocBytes(), cpuTime()
		samples = append(samples, opSample{
			wallMS: float64(t1.Sub(t0)) / 1e6,
			cpuMS:  float64(c1-c0) / 1e6,
			alloc:  a1 - a0,
			traced: tracedOp,
		})
		if err == nil {
			err = res.check()
			us, mb := res.model()
			modelUS = append(modelUS, us)
			modelMB = append(modelMB, mb)
		}
		t.record(err)
		if tracedOp {
			if pr != nil {
				pr.probe(tr)
			}
			tr.op++
		}
		// The traced run needs a traced and an untraced op to compare.
		if now().Sub(start) >= window && (!traced || len(samples) >= 2) {
			break
		}
	}
	elapsed := now().Sub(start).Seconds()
	g1 := readGoStats()
	cs1, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	canary := canaryMS()

	// Wall times are reported net of hypervisor steal. On a shared VM the
	// host gives other guests a share of the CPU time this VM wants, a
	// share that moves from run to run (steal of 0.3–33% of all CPU time on
	// a 2-vCPU VM), and an op that wanted a vCPU for wall time W ran for
	// W·(1 − share). Scaling by (1 − share), measured over the same
	// interval from /proc/stat, removes that. The raw wall figures stay in
	// the info line.
	var wall, wallTraced, cpu []float64
	var alloc uint64
	for _, s := range samples {
		if s.traced {
			wallTraced = append(wallTraced, s.wallMS)
			continue
		}
		wall = append(wall, s.wallMS)
		cpu = append(cpu, s.cpuMS)
		alloc += s.alloc
	}
	ops := len(samples)
	tailQ := tailQuantile(len(wall))
	gcPerOp := float64(g1.gcCycles-g0.gcCycles) / float64(ops)
	gcCPUFrac := 0.0
	if d := g1.totalCPU - g0.totalCPU; d > 0 {
		gcCPUFrac = (g1.gcCPU - g0.gcCPU) / d
	}
	steal := stealFrac(cs0, cs1)
	stolen := stolenShare(cs0, cs1)

	rep := &report{
		attempted: t.attempted,
		failed:    t.failed,
		metrics:   map[string]metric{},
		info: map[string]any{
			"ops":                ops,
			"setups":             w.setups,
			"op_ms_wall.tail":    percentile(wall, tailQ),
			"tail_percentile":    tailQ * 100,
			"tail_samples":       len(wall),
			"window_s":           elapsed,
			"env.steal_frac":     steal,
			"stolen_share":       stolen,
			"setup_stolen_share": setupSteal,
			"op_ms_wall.p50":     median(wall),
			"ops_per_s_wall":     float64(ops) / elapsed,
			"setup_s_wall":       median(setupS),
			"env.canary_ms":      canary,
			"go.gc_per_op":       gcPerOp,
			"go.gc_cpu_frac":     gcCPUFrac,
			"setup_s_all":        setupS,
		},
	}
	if t.first != "" {
		rep.info["first_failure"] = t.first
	}
	if !traced {
		values := map[string]float64{
			"setup_s":         median(setupS) * (1 - setupSteal),
			"op_ms.p50":       median(wall) * (1 - stolen),
			"ops_per_s":       float64(ops) / (elapsed * (1 - stolen)),
			"cpu_ms.p50":      median(cpu),
			"alloc_mb_per_op": float64(alloc) / float64(len(wall)) / 1e6,
			"rss_mb":          rss,
			"model_us":        median(modelUS),
			"model_mb":        median(modelMB),
		}
		return rep, rep.fill(endToEnd, values)
	}

	values := inst.perLayer(tr, reg, tr.op)
	values["go.gc_per_op"] = gcPerOp
	values["go.gc_cpu_frac"] = gcCPUFrac
	values["env.steal_frac"] = steal
	values["env.canary_ms"] = canary
	untracedP50 := median(wall)
	values["trace_overhead_frac"] = (median(wallTraced) - untracedP50) / untracedP50
	rep.tr = tr
	return rep, rep.fill(perLayerMetrics, values)
}

// fill reports every listed metric from values. A layer the workload does
// not exercise did no work and reports 0; a value that is not a number
// means no op succeeded, and fails the run.
func (r *report) fill(list [][2]string, values map[string]float64) error {
	for _, m := range list {
		v := values[m[0]]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m[0], v)
		}
		r.metrics[m[0]] = metric{v, m[1]}
	}
	return nil
}

// spanStats turns a traced run's spans into per-op figures by span name.
type spanStats struct {
	tot map[string]*layerTotals
	ops float64
}

func newSpanStats(tr *tracer, ops int) spanStats {
	return spanStats{tr.totals(), float64(ops)}
}

// ms is the mean time per op spent in spans called name.
func (s spanStats) ms(name string) float64 {
	if lt := s.tot[name]; lt != nil {
		return lt.dur.Seconds() * 1e3 / s.ops
	}
	return 0
}

// selfMS is the mean self time per op of spans called name.
func (s spanStats) selfMS(name string) float64 {
	if lt := s.tot[name]; lt != nil {
		return lt.self.Seconds() * 1e3 / s.ops
	}
	return 0
}

// perCallUS is the mean time per public call covered by spans called name.
func (s spanStats) perCallUS(name string) float64 {
	if lt := s.tot[name]; lt != nil && lt.calls > 0 {
		return lt.dur.Seconds() * 1e6 / float64(lt.calls)
	}
	return 0
}

// allocMB is the mean heap allocation per op inside spans whose name is
// one of names.
func (s spanStats) allocMB(names ...string) float64 {
	var b uint64
	for _, n := range names {
		if lt := s.tot[n]; lt != nil {
			b += lt.alloc
		}
	}
	return float64(b) / s.ops / 1e6
}

// layerNames returns prefix.l for each layer l.
func layerNames(prefix string, layers []string) []string {
	out := make([]string, len(layers))
	for i, l := range layers {
		out[i] = prefix + "." + l
	}
	return out
}
