// Command mptlint runs the repo's invariant analyzers (internal/lint)
// over a set of package patterns and exits non-zero on any finding. It is
// fully offline — types come from `go list -export` build-cache export
// data, not from downloaded tools — so `make lint` and `make verify` work
// on an air-gapped machine.
//
// Usage:
//
//	go run ./cmd/mptlint ./...            # whole repo, all analyzers
//	go run ./cmd/mptlint -run allocflow ./internal/winograd
//	go run ./cmd/mptlint -format=sarif ./... > mptlint.sarif
//	go run ./cmd/mptlint -list            # describe the suite
//
// Findings print as file:line:col: message (analyzer) by default;
// -format=sarif emits SARIF 2.1.0 for code-scanning upload / PR
// annotation. Accept a finding with a reasoned directive on (or directly
// above) the line:
//
//	//nolint:mapiter -- keys are sorted on the next line
//
// The reason after " -- " is mandatory; a bare //nolint is itself an
// error, and a directive that suppresses nothing is reported as stale.
// See DESIGN.md §9/§14.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mptwino/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one parsed mptlint command line.
type options struct {
	analyzers []*lint.Analyzer
	ran       []string // -run names; nil for the full suite
	list      bool
	format    string
	cachePath string
	patterns  []string
}

// parseFlags parses args into options on fs. It rejects an analyzer name
// the suite does not have and an unknown -format, so run never loads a
// package for a command line it would refuse.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	fs.BoolVar(&o.list, "list", false, "list the analyzers and exit")
	fs.StringVar(&o.format, "format", "text", "output format: text or sarif")
	fs.StringVar(&o.cachePath, "cache", "", "cache file for go list -export call-graph data (\"\" disables)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *runNames != "" {
		o.ran = strings.Split(*runNames, ",")
	}
	var err error
	if o.analyzers, err = lint.ByName(o.ran); err != nil {
		return o, fmt.Errorf("-run %q: %w (try -list)", *runNames, err)
	}
	if o.format != "text" && o.format != "sarif" {
		return o, fmt.Errorf("unknown -format %q (text, sarif)", o.format)
	}
	o.patterns = fs.Args()
	if len(o.patterns) == 0 {
		o.patterns = []string{"./..."}
	}
	return o, nil
}

// run is the whole command. It returns the exit code: 0 clean, 1 on any
// finding, 2 for a rejected command line or a load failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mptlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o, err := parseFlags(fs, args)
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "mptlint:", err)
		return 2
	}

	if o.list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "mptlint:", err)
		return 2
	}
	prog, err := lint.LoadCached(wd, o.cachePath, o.patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// //nolint directives are read from (and stale-checked in) the target
	// packages only: module-local dependencies of a partial pattern keep
	// their directives for the run that targets them. Stale detection for
	// wildcard directives needs the full suite (ran == nil).
	diags := lint.ApplyNolint(prog.Fset, prog.TargetFiles(), lint.Analyze(prog, o.analyzers), o.ran)

	if o.format == "sarif" {
		if err := printSARIF(stdout, wd, o.analyzers, diags); err != nil {
			fmt.Fprintln(stderr, "mptlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mptlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
