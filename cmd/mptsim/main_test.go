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
// -layer, -k or -net, a missing mode, and -autoplan with -config all or
// d_dp; valid command lines parse.
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
		{"-net alexnet -batch 0", ""},            // networks use their catalog batch
		{"-scenarios -layer Early -batch 0", ""}, // -scenarios takes precedence
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
		{"-net alexnet -k 4", ""}, // -k is a layer-mode flag
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
// existing profile stays byte-unchanged, while a valid run writes it. An
// existing -trace file without -force is one of the rejections.
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
		"-layer Early -trace " + trace,
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
	}

	if code, stderr := runMain(t, "-layer", "Early", "-config", "w_mp", "-cpuprofile", prof); code != 0 {
		t.Fatalf("valid run: exit %d, stderr %q", code, stderr)
	}
	if got, err := os.ReadFile(prof); err != nil || bytes.Equal(got, keep) {
		t.Errorf("valid run left the profile as %q (%v), want a CPU profile", got, err)
	}
}
