package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself instead of the tests when MPTSIM_MAIN
// is set, so runMain can drive main, exit code included, in a child
// process.
func TestMain(m *testing.M) {
	if os.Getenv("MPTSIM_MAIN") == "1" {
		os.Args = append([]string{"mptsim"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs `mptsim args...` in a child process and returns its exit
// code and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MPTSIM_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("mptsim %v: %v", args, err)
	return 0, ""
}

func parseArgs(args string) (options, error) {
	fs := flag.NewFlagSet("mptsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, strings.Fields(args))
}

// TestParseFlagsRejectsBadCounts checks the command-line gate main runs
// before any output: a worker count below 1 is rejected in every mode, a
// batch below 1 in layer mode, a -faults list that is malformed, names a
// module outside [0, -workers) or fails every worker, an unknown -config,
// -layer, -k or -net, a missing mode, -autoplan with -config all or d_dp,
// and every set flag the chosen mode never reads; valid command lines
// parse, among them every mptsim command line of the Makefile, CI and
// README.
func TestParseFlagsRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string // "" = must parse
	}{
		{"-net alexnet -workers 0", "-workers 0"},
		{"-layer Early -workers -3", "-workers -3"},
		{"-net alexnet -autoplan -workers 0", "-workers 0"},
		{"-layer Early -batch 0", "-batch 0"},
		{"-scenarios -workers 0", "-workers 0"},
		{"-layer Mid-1 -config w_mp -workers 64 -batch 128", ""},
		{"-net alexnet -batch 0", "-batch is not read in -net mode"}, // networks use their catalog batch
		{"-scenarios -layer Early -batch 0", "-batch is not read in -scenarios mode"},
		{"-net alexnet -faults 300", "module 300 out of range [0,256)"},
		{"-net alexnet -faults -1", "module -1 out of range [0,256)"},
		{"-net alexnet -faults 3,x", `bad module id "x"`},
		{"-net alexnet -workers 64 -faults 64", "module 64 out of range [0,64)"},
		{"-net alexnet -faults ,", "no module ids"},
		{"-net alexnet -workers 2 -faults 0,1,1", "fails all 2 workers"},
		{"-net wrn -faults 3,7,200 -config all", ""},
		{"-net alexnet -workers 2 -faults 1,1", ""},
		{"-net wrn -config bogus", `unknown config "bogus"`},
		{"-scenarios -config bogus", `unknown config "bogus"`},
		{"-layer Early -k 4", "kernel size 4 unsupported"},
		{"-layer Nope", `unknown layer "Nope"`},
		{"-net nosuch", `unknown network "nosuch"`},
		{"-config w_mp", "specify -layer, -net, or -scenarios"},
		{"-net alexnet -autoplan -config all", `-autoplan needs a single Winograd -config, not "all"`},
		{"-net alexnet -autoplan -config d_dp", `-autoplan needs a single Winograd -config, not "d_dp"`},
		{"-net alexnet -autoplan -config w_mp", ""},
		{"-net alexnet -k 4", "-k is not read in -net mode"},

		// A set flag the chosen mode never reads; flags left at their
		// defaults never count.
		{"-net alexnet -faults 3 -autoplan -config w_mp", "-faults is not read in -net -autoplan mode"},
		{"-net alexnet -faults 3 -autoplan", "-faults is not read in -net -autoplan mode"},
		{"-layer Early -faults 3", "-faults is not read in -layer mode"},
		{"-layer Early -autoplan", "-autoplan is not read in -layer mode"},
		{"-layer Early -net wrn", "-net is not read in -layer mode"},
		{"-layer Early -trace t.json", "-trace is not read in -layer mode"},
		{"-net wrn -autoplan-out x.tsv", "-autoplan-out is not read in -net mode"},
		{"-net wrn -allow-wide-tiles", "-allow-wide-tiles is not read in -net mode"},
		{"-net wrn -scenarios-out x.tsv", "-scenarios-out is not read in -net mode"},
		{"-net wrn -faults 3 -scenarios-smoke", "-scenarios-smoke is not read in -net -faults mode"},
		{"-net wrn -batch 64 -k 5 -breakdown", "-batch is not read in -net mode"},
		{"-scenarios -net wrn", "-net is not read in -scenarios mode"},
		{"-scenarios -config d_dp", "-config is not read in -scenarios mode"},
		{"-scenarios -trace t.json", "-trace is not read in -scenarios mode"},
		{"-scenarios -trace-report r.txt", "-trace-report is not read in -scenarios mode"},
		{"-scenarios", ""},
		{"-layer Early -workers 64 -parallel 2 -metrics -metrics-json m.json -force", ""},

		// The Makefile's, CI's and README's command lines.
		{"-net vgg -config all -faults 17 -trace trace.json -metrics -force", ""},
		{"-net vgg -autoplan -autoplan-out /dev/null -trace trace_vgg16.json -metrics-json metrics_vgg16.json -force", ""},
		{"-scenarios -scenarios-out scenarios.tsv", ""},
		{"-net alexnet -autoplan -autoplan-out plan_alexnet.tsv", ""},
		{"-net vgg -autoplan -autoplan-out plan_vgg16.tsv", ""},
		{"-net alexnet -autoplan -config w_mp -autoplan-out plan_alexnet_wmp.tsv", ""},
		{"-net vgg -autoplan -allow-wide-tiles -autoplan-out plan_vgg16_wide.tsv", ""},
		{"-net wrn -config all -cpuprofile sim_cpu.pprof -memprofile sim_mem.pprof", ""},
		{"-net alexnet -autoplan -autoplan-out /dev/null -trace plan_trace.json", ""},
		{"-net alexnet -autoplan -autoplan-out /dev/null -trace trace_alexnet.json -metrics-json metrics_alexnet.json", ""},
		{"-net vgg -autoplan -autoplan-out /dev/null -trace trace_vgg16_b.json -metrics-json metrics_vgg16_b.json", ""},
		{"-net fractalnet -config all", ""},
		{"-net vgg -config w_mp++ -trace out.json", ""},
		{"-net vgg -config all -metrics", ""},
		{"-net wrn -faults 17 -metrics-json m.json", ""},
		{"-net vgg -trace a.json -parallel 1", ""},
		{"-net vgg -autoplan -autoplan-out /dev/null -trace t.json -metrics-json m.json", ""},
		{"-net alexnet -autoplan -autoplan-out /dev/null -trace-report r.txt", ""},
		{"-scenarios -scenarios-out table.tsv", ""},
		{"-net alexnet -autoplan", ""},
		{"-net alexnet -autoplan -trace plan.json", ""},
		{"-layer Late-2 -config w_mp++", ""},
		{"-layer Mid-1 -config w_mp++ -breakdown", ""},
		{"-layer Mid-1 -k 5 -batch 512", ""},
		{"-net wrn -config all -workers 64", ""},
		{"-net wrn -faults 3,7,200 -config w_mp*", ""},
		{"-net vgg -trace out.json -metrics", ""},
	} {
		_, err := parseArgs(tc.args)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%q: unexpected error %v", tc.args, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%q: error %v, want one naming %q", tc.args, err, tc.wantErr)
		}
	}

	o, err := parseArgs("-layer Mid-1 -config w_mp -workers 64 -batch 128")
	if err != nil || o.layer != "Mid-1" || o.config != "w_mp" || o.workers != 64 || o.batch != 128 {
		t.Errorf("valid layer command line parsed to %+v, %v", o, err)
	}
	o, err = parseArgs("-net wrn -faults 3,7,200")
	if err != nil || len(o.failed) != 3 || o.failed[0] != 3 || o.failed[1] != 7 || o.failed[2] != 200 {
		t.Errorf("-faults 3,7,200 parsed to %v, %v", o.failed, err)
	}
}

// TestRejectedRunLeavesProfileUnchanged runs the whole command: each
// rejected command line exits 2 before -cpuprofile creates its file, so an
// existing profile stays byte-unchanged and no output file it names is
// created, while a valid run writes the profile. An existing -trace file
// without -force is one of the rejections; a flag the mode never reads is
// another.
func TestRejectedRunLeavesProfileUnchanged(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	trace := filepath.Join(dir, "trace.json")
	keep := []byte("keep")
	for _, f := range []string{prof, trace} {
		if err := os.WriteFile(f, keep, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []string{
		"-net wrn -config bogus",
		"-layer Early -k 4",
		"-net nosuch",
		"-net alexnet -autoplan -config all",
		"-net alexnet -autoplan -config d_dp",
		"-config w_mp",
		"-net wrn -trace " + trace,
		"-net alexnet -faults 3 -autoplan -config w_mp",
		"-layer Early -faults 3",
		"-layer Early -autoplan",
		"-layer Early -net wrn",
		"-net wrn -autoplan-out " + filepath.Join(dir, "x.tsv"),
		"-net wrn -scenarios-out " + filepath.Join(dir, "x.tsv"),
		"-net wrn -batch 64 -k 5 -breakdown",
		"-scenarios -net wrn",
		"-scenarios -config d_dp",
		"-scenarios -trace " + filepath.Join(dir, "t.json"),
	} {
		args := append(strings.Fields(bad), "-cpuprofile", prof)
		code, stderr := runMain(t, args...)
		if code != 2 || !strings.HasPrefix(stderr, "mptsim: ") {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 and an mptsim error", bad, code, stderr)
		}
		for _, f := range []string{prof, trace} {
			if got, err := os.ReadFile(f); err != nil || !bytes.Equal(got, keep) {
				t.Errorf("%q: %s now holds %q (%v), want %q", bad, filepath.Base(f), got, err, keep)
			}
		}
		for _, f := range []string{"x.tsv", "t.json"} {
			if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
				t.Errorf("%q: created %s (%v)", bad, f, err)
			}
		}
	}

	if code, stderr := runMain(t, "-layer", "Early", "-config", "w_mp", "-cpuprofile", prof); code != 0 {
		t.Fatalf("valid run: exit %d, stderr %q", code, stderr)
	}
	if got, err := os.ReadFile(prof); err != nil || bytes.Equal(got, keep) {
		t.Errorf("valid run left the profile as %q (%v), want a CPU profile", got, err)
	}
}
