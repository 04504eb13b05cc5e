// Command mptsim simulates one training iteration of a convolution layer
// or a whole CNN on the NDP system under a chosen parallelization
// configuration.
//
// Usage:
//
//	mptsim -layer Late-2 -config w_mp++            # one Table II layer
//	mptsim -net fractalnet -config w_mp++          # whole CNN
//	mptsim -net wrn -config all -workers 64        # every Table IV config
//	mptsim -layer Mid-1 -k 5 -batch 512            # 5x5 kernels
//	mptsim -net wrn -faults 17                     # module 17 fails; show recovery
//	mptsim -net wrn -faults 3,7,200 -config w_mp*  # multiple failures
//	mptsim -net vgg -config all -trace out.json    # cycle-domain Chrome trace
//	mptsim -scenarios                              # degraded-fleet scenario matrix (TSV)
//	mptsim -scenarios -scenarios-out table.tsv     # ... to a file (CI artifact)
//	mptsim -net alexnet -autoplan                  # per-layer strategy auto-search (TSV plan)
//	mptsim -net vgg -autoplan -autoplan-out p.tsv  # ... plan dump to a file (CI artifact)
//	mptsim -net vgg -autoplan -metrics-json m.json # ... plus the planner's gauges
//
// Telemetry output is deterministic: for a fixed invocation the trace
// JSON and metrics dump are byte-identical at any -parallel setting
// (timestamps are simulated cycles, never wall clock).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"mptwino/internal/model"
	"mptwino/internal/planner"
	"mptwino/internal/scenario"
	"mptwino/internal/sim"
	"mptwino/internal/telemetry"
	"mptwino/internal/traceview"
)

// options is one parsed mptsim command line.
type options struct {
	layer, net, config          string
	workers, batch, k, parallel int
	breakdown                   bool
	faults                      string
	failed                      []int // -faults, parsed and checked against -workers
	scenarios, scenariosSmoke   bool
	scenariosOut                string
	autoplan, allowWideTiles    bool
	autoplanOut                 string
	trace, traceReport          string
	force                       bool
	metricsJSON                 string
	cpuProfile, memProfile      string

	cfgs    []sim.SystemConfig // -config, resolved
	layerP  model.Layer        // -layer with -k, resolved in layer mode
	network model.Network      // -net, resolved in net mode
}

// modeReads names, per mode, the flags that mode reads besides the ones
// every mode reads (-workers, -parallel, -force and the profiles). Layer
// mode runs no network, so its trace would hold no event; the scenario
// matrix runs its own systems, untraced. Only the planner publishes to the
// registry, so only autoplan mode reads -metrics-json.
var modeReads = map[string]string{
	"-scenarios":     "scenarios scenarios-out scenarios-smoke",
	"-layer":         "layer config batch k breakdown",
	"-net":           "net config trace trace-report",
	"-net -faults":   "net config trace trace-report faults",
	"-net -autoplan": "net config trace trace-report autoplan autoplan-out allow-wide-tiles metrics-json",
}

// parseFlags parses args into options on fs and resolves every name the
// chosen mode runs. It rejects what no run can use: -workers below 1 in
// every mode, an unknown -config, a missing mode, a flag the command line
// set that the chosen mode never reads (modeReads), in layer mode a
// -batch below 1 (networks use their catalog batch), an unknown -layer or
// a -k other than 3 or 5, in net mode an unknown -net, and -autoplan with
// -config all or d_dp (direct convolution has no strategy space to plan);
// a -faults list that is malformed, names a module outside [0, -workers)
// or leaves no survivor; and an existing -trace, -trace-report or
// -metrics-json file without -force. main calls it before it creates any
// file or prints anything, so a rejected command line prints only the
// error and leaves every file as it was.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.layer, "layer", "", "Table II layer: Early, Mid-1, Mid-2, Late-1, Late-2")
	fs.StringVar(&o.net, "net", "", "network: wrn, resnet34, fractalnet, vgg, alexnet")
	fs.StringVar(&o.config, "config", "w_mp++", "layer and net mode: Table IV config (d_dp,w_dp,w_mp,w_mp+,w_mp*,w_mp++) or 'all'")
	fs.IntVar(&o.workers, "workers", 256, "NDP worker count")
	fs.IntVar(&o.batch, "batch", 256, "total batch size (layer mode only; networks use their catalog batch)")
	fs.IntVar(&o.k, "k", 3, "kernel size for layer mode: 3 or 5")
	fs.BoolVar(&o.breakdown, "breakdown", false, "layer mode: show per-resource durations and the binding resource")
	fs.StringVar(&o.faults, "faults", "", "net mode, not with -autoplan: comma-separated failed module IDs; re-solves clustering over the survivors and reports healthy vs degraded")
	fs.BoolVar(&o.scenarios, "scenarios", false, "run the deterministic degraded-fleet scenario matrix and emit the TSV table (byte-identical at any -parallel)")
	fs.StringVar(&o.scenariosOut, "scenarios-out", "", "with -scenarios: write the table to this file instead of stdout")
	fs.BoolVar(&o.scenariosSmoke, "scenarios-smoke", false, "with -scenarios: run the trimmed fast subset (the make-verify smoke grid)")
	fs.BoolVar(&o.autoplan, "autoplan", false, "net mode: search per-layer parallelization strategies with lower-bound pruning and emit the plan TSV (byte-identical at any -parallel)")
	fs.StringVar(&o.autoplanOut, "autoplan-out", "", "with -autoplan: write the plan dump to this file instead of stdout")
	fs.BoolVar(&o.allowWideTiles, "allow-wide-tiles", false, "with -autoplan: admit the numerically unsafe F(6x6,3x3) transform into the planner's tile-size axis (inference-grade only)")
	fs.StringVar(&o.trace, "trace", "", "net mode: write a Chrome trace_event JSON (chrome://tracing, Perfetto) with simulated-cycle timestamps to this file")
	fs.StringVar(&o.traceReport, "trace-report", "", "net mode: write the mpttrace text attribution report (critical path, overlap, idle) for this run to this file")
	fs.StringVar(&o.metricsJSON, "metrics-json", "", "with -autoplan: write the planner's gauges and counters as JSON to this file ('-' for stdout)")
	fs.BoolVar(&o.force, "force", false, "overwrite existing -trace/-metrics-json/-trace-report output files instead of refusing")
	fs.IntVar(&o.parallel, "parallel", 0, "host goroutines for the sweep fan-out (0 = GOMAXPROCS); results and telemetry are byte-identical for every value")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.workers < 1 {
		return o, fmt.Errorf("-workers %d: need at least 1 worker", o.workers)
	}
	var err error
	if o.config == "all" {
		o.cfgs = sim.AllConfigs()
	} else {
		c, err := parseConfig(o.config)
		if err != nil {
			return o, err
		}
		o.cfgs = []sim.SystemConfig{c}
	}
	mode := "-net"
	switch {
	case o.scenarios:
		mode = "-scenarios"
	case o.layer != "":
		mode = "-layer"
	case o.net == "":
		return o, fmt.Errorf("specify -layer, -net, or -scenarios (see -h)")
	case o.autoplan:
		mode = "-net -autoplan"
	case o.faults != "":
		mode = "-net -faults"
	}
	reads := strings.Fields(modeReads[mode] + " workers parallel force cpuprofile memprofile")
	var unread error
	fs.Visit(func(f *flag.Flag) {
		if unread == nil && !slices.Contains(reads, f.Name) {
			unread = fmt.Errorf("-%s is not read in %s mode", f.Name, mode)
		}
	})
	if unread != nil {
		return o, unread
	}
	switch mode {
	case "-scenarios":
	case "-layer":
		if o.batch < 1 {
			return o, fmt.Errorf("-batch %d: need at least 1 sample", o.batch)
		}
		if o.layerP, err = findLayer(o.layer, o.k); err != nil {
			return o, err
		}
	default:
		if o.network, err = findNetwork(o.net); err != nil {
			return o, err
		}
		if o.autoplan && (o.config == "all" || o.cfgs[0] == sim.DDp) {
			return o, fmt.Errorf("-autoplan needs a single Winograd -config, not %q", o.config)
		}
		if o.faults != "" {
			if o.failed, err = parseFaults(o.faults, o.workers); err != nil {
				return o, err
			}
		}
	}
	// Telemetry files are never silently overwritten: an existing regular
	// file at any of these paths aborts the run unless -force is set.
	for _, p := range []string{o.trace, o.traceReport, o.metricsJSON} {
		if err := checkOverwrite(p, o.force); err != nil {
			return o, err
		}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail(err)
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	s := sim.DefaultSystem()
	s.Workers = o.workers
	s.Parallel = o.parallel

	// Telemetry: -trace and -trace-report record the cycle-domain event
	// stream. The registry holds only the planner's gauges, so it is built
	// in autoplan mode when -trace-report joins them or -metrics-json
	// dumps them.
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if o.autoplan && (o.traceReport != "" || o.metricsJSON != "") {
		reg = telemetry.NewRegistry()
	}
	if o.trace != "" || o.traceReport != "" {
		tracer = telemetry.NewTracer()
	}
	s.Metrics = reg
	s.Trace = tracer
	defer writeTelemetry(reg, tracer, o.trace, o.traceReport, o.metricsJSON)

	cfgs := o.cfgs
	switch {
	case o.scenarios:
		m := scenario.Run(scenario.Options{Workers: o.workers, Parallel: o.parallel, Smoke: o.scenariosSmoke})
		w := os.Stdout
		if o.scenariosOut != "" {
			f, err := os.Create(o.scenariosOut)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := m.WriteTSV(w); err != nil {
			fail(err)
		}
	case o.layer != "":
		l := o.layerP
		fmt.Printf("%-8s %-7s %3s %3s %12s %12s %12s %14s %12s\n",
			"layer", "config", "Ng", "Nc", "fwd (us)", "bwd (us)", "total (us)", "energy (J)", "net MB/wkr")
		for _, c := range cfgs {
			r := s.SimulateLayer(l, o.batch, c)
			fmt.Printf("%-8s %-7s %3d %3d %12.1f %12.1f %12.1f %14.4f %12.2f\n",
				l.Name, c, r.Ng, r.Nc, r.ForwardSec*1e6, r.BackwardSec*1e6,
				r.TotalSec()*1e6, r.Energy.Total(), float64(r.NetBytes)/1e6)
			if o.breakdown {
				printBreakdown("fwd", r.Forward)
				printBreakdown("bwd", r.Backward)
			}
		}
	default: // net mode
		net := o.network
		if o.faults != "" {
			runFaults(s, net, cfgs, o.failed)
			return
		}
		if o.autoplan {
			runAutoplan(s, net, cfgs[0], o.autoplanOut, o.allowWideTiles)
			return
		}
		base := sim.SingleWorkerBaseline(net)
		fmt.Printf("%s: batch %d, %d layer entries, %.1fM params, 1-NDP baseline %.1f img/s\n",
			net.Name, net.Batch, len(net.Layers), float64(net.ParamCount())/1e6, base.ImagesPerSec)
		fmt.Printf("%-7s %12s %12s %12s %10s %10s\n",
			"config", "iter (ms)", "img/s", "speedup", "energy (J)", "power (W)")
		for _, c := range cfgs {
			r := s.SimulateNetwork(net, c)
			fmt.Printf("%-7s %12.2f %12.1f %11.1fx %10.1f %10.0f\n",
				c, r.IterationSec*1e3, r.ImagesPerSec, sim.Speedup(r, base),
				r.Energy.Total(), r.PowerW)
		}
	}
}

// runAutoplan builds the per-layer strategy plan and writes the
// deterministic TSV dump — the bytes the CI autoplan job diffs against
// the goldens in internal/planner/testdata. A summary of the plan-vs-menu
// comparison goes to stderr so redirected stdout stays clean TSV.
func runAutoplan(s sim.System, net model.Network, cfg sim.SystemConfig, outPath string, wideTiles bool) {
	p := planner.Build(net, planner.Options{System: s, Config: cfg, AllowWideTiles: wideTiles})
	w := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := p.WriteTSV(w); err != nil {
		fail(err)
	}
	// With -trace attached, execute the plan once so the Chrome timeline
	// shows the planned per-layer phases (the search itself emits none).
	if s.Trace.Enabled() {
		if _, err := s.SimulateNetworkWithPlan(net, cfg, p.Strategies()); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "mptsim: %s autoplan %.3fms vs menu %.3fms (%.2f%% faster), redistribution %.3fus\n",
		net.Name, p.ExecSec*1e3, p.MenuExecSec*1e3,
		100*(1-p.ExecSec/p.MenuExecSec), p.RedistSec*1e6)
}

// runFaults prints the fault-recovery comparison: the same network
// simulated healthy and after the listed module failures, with the
// dynamic-clustering optimizer re-solving the grid over the survivors.
func runFaults(s sim.System, net model.Network, cfgs []sim.SystemConfig, failed []int) {
	fmt.Printf("%s: %d workers, %d failed module(s) %v\n", net.Name, s.Workers, len(failed), failed)
	fmt.Printf("%-7s %9s %14s %14s %9s %9s %14s\n",
		"config", "survivors", "healthy (ms)", "degraded (ms)", "slowdown", "grid", "reconfig (us)")
	for _, c := range cfgs {
		r, err := s.SimulateNetworkWithFailure(net, c, failed)
		if err != nil {
			fail(err)
		}
		// Report the grid the first (largest) layer settled on.
		grid := "-"
		if len(r.Degraded.Layers) > 0 {
			lr := r.Degraded.Layers[0]
			grid = fmt.Sprintf("(%d,%d)", lr.Ng, lr.Nc)
		}
		fmt.Printf("%-7s %9d %14.2f %14.2f %8.2fx %9s %14.1f\n",
			c, r.Survivors, r.Healthy.IterationSec*1e3, r.Degraded.IterationSec*1e3,
			r.Slowdown(), grid, r.ReconfigSec*1e6)
	}
}

// parseFaults parses a -faults list of module ids, each in [0, workers),
// that leaves at least one of the workers alive (a repeated id fails one
// module).
func parseFaults(list string, workers int) ([]int, error) {
	var out []int
	dead := map[int]bool{}
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad module id %q in -faults", tok)
		}
		if v < 0 || v >= workers {
			return nil, fmt.Errorf("-faults module %d out of range [0,%d)", v, workers)
		}
		out = append(out, v)
		dead[v] = true
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-faults given but no module ids parsed")
	}
	if len(dead) == workers {
		return nil, fmt.Errorf("-faults fails all %d workers", workers)
	}
	return out, nil
}

func printBreakdown(pass string, b sim.Breakdown) {
	fmt.Printf("         %s: systolic %.1fus  vector %.1fus  dram %.1fus  tile %.1fus  coll %.1fus  -> bound by %s\n",
		pass, b.SystolicSec*1e6, b.VectorSec*1e6, b.DRAMSec*1e6,
		b.TileCommSec*1e6, b.CollSec*1e6, b.Binding())
}

func parseConfig(name string) (sim.SystemConfig, error) {
	for _, c := range sim.AllConfigs() {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown config %q", name)
}

func findLayer(name string, k int) (model.Layer, error) {
	layers := model.FiveLayers()
	if k == 5 {
		layers = model.FiveLayers5x5()
	} else if k != 3 {
		return model.Layer{}, fmt.Errorf("kernel size %d unsupported (3 or 5)", k)
	}
	for _, l := range layers {
		if strings.EqualFold(l.Name, name) {
			return l, nil
		}
	}
	return model.Layer{}, fmt.Errorf("unknown layer %q", name)
}

func findNetwork(name string) (model.Network, error) {
	switch strings.ToLower(name) {
	case "wrn", "wrn-40-10":
		return model.WRN40x10(), nil
	case "resnet34", "resnet-34":
		return model.ResNet34(), nil
	case "fractalnet", "fractal":
		return model.FractalNet44(), nil
	case "vgg", "vgg16", "vgg-16":
		return model.VGG16(), nil
	case "alexnet":
		return model.AlexNet(), nil
	default:
		return model.Network{}, fmt.Errorf("unknown network %q (wrn, resnet34, fractalnet, vgg, alexnet)", name)
	}
}

// checkOverwrite rejects a path that names an existing regular file when
// -force is not set; devices like /dev/null and fresh paths pass.
func checkOverwrite(path string, force bool) error {
	if path == "" || path == "-" || force {
		return nil
	}
	if fi, err := os.Stat(path); err == nil && fi.Mode().IsRegular() {
		return fmt.Errorf("%s exists; pass -force to overwrite", path)
	}
	return nil
}

// writeTelemetry flushes the run's telemetry: the Chrome trace_event JSON
// to tracePath, the mpttrace attribution report to reportPath and the
// registry as JSON to jsonPath ('-' = stdout). All output is canonical
// bytes — sorted counter names, stable-sorted events — so runs at
// different -parallel settings diff clean.
func writeTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer, tracePath, reportPath, jsonPath string) {
	if tracer != nil && tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fail(err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "mptsim: wrote %d trace events to %s\n", tracer.Len(), tracePath)
	}
	if tracer != nil && reportPath != "" {
		run := traceview.FromTrace(tracer.Export())
		run.Metrics = reg.Snapshot() // empty without a registry: no join
		rep := traceview.Analyze(run, traceview.Options{})
		f, err := os.Create(reportPath)
		if err != nil {
			fail(err)
		}
		if err := rep.WriteText(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "mptsim: wrote attribution report to %s\n", reportPath)
	}
	if jsonPath != "" {
		w := os.Stdout
		if jsonPath != "-" {
			f, err := os.Create(jsonPath)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := reg.WriteJSON(w); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mptsim:", err)
	os.Exit(2)
}
