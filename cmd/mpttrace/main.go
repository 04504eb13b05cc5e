// Command mpttrace analyzes the deterministic cycle-domain traces the
// simulator emits (mptsim -trace) together with their metrics snapshots
// (mptsim -metrics-json): it reconstructs per-lane timelines and the
// critical path, attributes time to compute / communication / idle, joins
// the planner's achieved-vs-bound traffic gauges, and gates model-time
// regressions exactly.
//
// Usage:
//
//	mpttrace report [-metrics m.json] [-format text|json|html] [-top 5] [-o out] trace.json
//	mpttrace diff [-metrics-a a.json] [-metrics-b b.json] [-max-delta-cycles N] [-max-delta-frac F] [-exact] a.json b.json
//	mpttrace check [-metrics m.json] [-min-overlap F] [-max-idle F] [-max-bound-ratio F] [-max-critical-cycles N] trace.json
//
// Every input is byte-stable for a fixed simulation (simulated cycles,
// never wall clock), so reports are bit-identical across runs and host
// worker counts, `diff` can gate with zero tolerance (exit 1 on any
// regression; -exact fails on any difference at all), and `check` turns
// overlap/idle/bound claims into CI assertions.
//
// Exit codes: 0 success, 1 regression or failed assertion, 2 usage or I/O
// error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mptwino/internal/traceview"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "report":
		cmdReport(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "check":
		cmdCheck(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mpttrace: unknown subcommand %q (report, diff, check)\n", os.Args[1])
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mpttrace report [-metrics m.json] [-format text|json|html] [-top 5] [-o out] trace.json
  mpttrace diff [-metrics-a a.json] [-metrics-b b.json] [-max-delta-cycles N] [-max-delta-frac F] [-exact] a.json b.json
  mpttrace check [-metrics m.json] [-min-overlap F] [-max-idle F] [-max-bound-ratio F] [-max-critical-cycles N] trace.json`)
	os.Exit(2)
}

// reportOptions are the parsed flags of `mpttrace report`.
type reportOptions struct {
	metrics, format, out, trace string
	top                         int
}

// parseReport parses report's command line on fs and validates it: exactly
// one trace file, a known -format and -top ≥ 1. cmdReport calls it before
// it reads any input or opens -o, so a rejected command line leaves every
// file as it was.
func parseReport(fs *flag.FlagSet, args []string) (reportOptions, error) {
	var o reportOptions
	fs.StringVar(&o.metrics, "metrics", "", "metrics snapshot JSON (mptsim -metrics-json) to join planner gauges from")
	fs.StringVar(&o.format, "format", "text", "output format: text, json, or html (self-contained timeline + flame view)")
	fs.IntVar(&o.top, "top", 5, "critical-path contributors to list per lane (≥ 1)")
	fs.StringVar(&o.out, "o", "-", "output file ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 1 {
		return o, errors.New("exactly one trace file required")
	}
	o.trace = fs.Arg(0)
	switch o.format {
	case "text", "json", "html":
	default:
		return o, fmt.Errorf("unknown -format %q (text, json, html)", o.format)
	}
	if o.top < 1 {
		return o, fmt.Errorf("-top %d: need at least 1 contributor per lane", o.top)
	}
	return o, nil
}

func cmdReport(args []string) {
	o, err := parseReport(flag.NewFlagSet("report", flag.ExitOnError), args)
	if err != nil {
		usageFail("report", err)
	}

	run := loadRun(o.trace, o.metrics)
	rep := traceview.Analyze(run, traceview.Options{TopK: o.top})

	w, closeFn := openOut(o.out)
	defer closeFn()
	switch o.format {
	case "text":
		err = rep.WriteText(w)
	case "json":
		err = rep.WriteJSON(w)
	case "html":
		err = traceview.WriteHTML(w, run, rep)
	}
	if err != nil {
		fail(err)
	}
}

// diffOptions are the parsed flags of `mpttrace diff`.
type diffOptions struct {
	metricsA, metricsB, out string
	a, b                    string // the two trace files
	opt                     traceview.DiffOptions
}

// parseDiff parses diff's command line on fs and validates it: exactly two
// trace files. cmdDiff calls it before it reads any input or opens -o.
func parseDiff(fs *flag.FlagSet, args []string) (diffOptions, error) {
	var o diffOptions
	fs.StringVar(&o.metricsA, "metrics-a", "", "metrics snapshot JSON for run A")
	fs.StringVar(&o.metricsB, "metrics-b", "", "metrics snapshot JSON for run B")
	fs.Int64Var(&o.opt.MaxDeltaCycles, "max-delta-cycles", 0, "allowed absolute model-time increase per metric")
	fs.Float64Var(&o.opt.MaxDeltaFrac, "max-delta-frac", 0, "allowed relative increase per metric (0.02 = +2%)")
	fs.BoolVar(&o.opt.Exact, "exact", false, "fail on any difference, improvements included (golden-gate mode)")
	fs.StringVar(&o.out, "o", "-", "output file ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 2 {
		return o, errors.New("exactly two trace files required (a.json b.json)")
	}
	o.a, o.b = fs.Arg(0), fs.Arg(1)
	return o, nil
}

func cmdDiff(args []string) {
	o, err := parseDiff(flag.NewFlagSet("diff", flag.ExitOnError), args)
	if err != nil {
		usageFail("diff", err)
	}

	repA := traceview.Analyze(loadRun(o.a, o.metricsA), traceview.Options{})
	repB := traceview.Analyze(loadRun(o.b, o.metricsB), traceview.Options{})
	d := traceview.Diff(repA, repB, o.opt)

	w, closeFn := openOut(o.out)
	if err := d.WriteText(w); err != nil {
		closeFn()
		fail(err)
	}
	closeFn()
	if d.Regressions > 0 {
		fmt.Fprintf(os.Stderr, "mpttrace diff: %d regression(s)\n", d.Regressions)
		os.Exit(1)
	}
}

// checkOptions are the parsed flags of `mpttrace check`.
type checkOptions struct {
	metrics, trace string
	a              traceview.Assertions
}

// parseCheck parses check's command line on fs and validates it: exactly
// one trace file and at least one assertion. cmdCheck calls it before it
// reads any input.
func parseCheck(fs *flag.FlagSet, args []string) (checkOptions, error) {
	o := checkOptions{a: traceview.Unset()}
	fs.StringVar(&o.metrics, "metrics", "", "metrics snapshot JSON to join planner gauges from")
	fs.Float64Var(&o.a.MinOverlap, "min-overlap", o.a.MinOverlap, "require comm-hidden-by-compute overlap ≥ this fraction in every phase lane (-1 = off)")
	fs.Float64Var(&o.a.MaxIdle, "max-idle", o.a.MaxIdle, "cap the idle share of every phase lane (-1 = off)")
	fs.Float64Var(&o.a.MaxBoundRatio, "max-bound-ratio", o.a.MaxBoundRatio, "cap every planned layer's achieved/bound byte ratio (-1 = off)")
	fs.Int64Var(&o.a.MaxCriticalCycles, "max-critical-cycles", o.a.MaxCriticalCycles, "cap every phase lane's critical-path cycles (-1 = off)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 1 {
		return o, errors.New("exactly one trace file required")
	}
	o.trace = fs.Arg(0)
	if !o.a.Any() {
		return o, errors.New("no assertions enabled (see -h)")
	}
	return o, nil
}

func cmdCheck(args []string) {
	o, err := parseCheck(flag.NewFlagSet("check", flag.ExitOnError), args)
	if err != nil {
		usageFail("check", err)
	}

	rep := traceview.Analyze(loadRun(o.trace, o.metrics), traceview.Options{})
	fails := traceview.Check(rep, o.a)
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
	fmt.Println("mpttrace check: all assertions hold")
}

// loadRun parses the trace and (optionally) its metrics snapshot.
func loadRun(tracePath, metricsPath string) *traceview.Run {
	f, err := os.Open(tracePath)
	if err != nil {
		fail(err)
	}
	run, err := traceview.ParseTrace(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	if metricsPath != "" {
		mf, err := os.Open(metricsPath)
		if err != nil {
			fail(err)
		}
		m, err := traceview.LoadMetrics(mf)
		mf.Close()
		if err != nil {
			fail(err)
		}
		run.Metrics = m
	}
	return run
}

// openOut resolves '-' to stdout, anything else to a created file.
func openOut(path string) (io.Writer, func()) {
	if path == "" || path == "-" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mpttrace:", err)
	os.Exit(2)
}

// usageFail reports a rejected command line of subcommand sub and exits 2.
func usageFail(sub string, err error) {
	fmt.Fprintf(os.Stderr, "mpttrace %s: %v\n", sub, err)
	os.Exit(2)
}
