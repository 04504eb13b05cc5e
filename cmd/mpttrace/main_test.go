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

// TestMain runs the command itself instead of the tests when MPTTRACE_MAIN
// is set, so runMain can drive main, exit code included, in a child
// process.
func TestMain(m *testing.M) {
	if os.Getenv("MPTTRACE_MAIN") == "1" {
		os.Args = append([]string{"mpttrace"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs `mpttrace args...` in a child process and returns its exit
// code and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MPTTRACE_MAIN=1")
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
	t.Fatalf("mpttrace %v: %v", args, err)
	return 0, ""
}

// parsers adapts each subcommand's flag parser to one signature.
var parsers = map[string]func(*flag.FlagSet, []string) error{
	"report": func(fs *flag.FlagSet, args []string) error { _, err := parseReport(fs, args); return err },
	"diff":   func(fs *flag.FlagSet, args []string) error { _, err := parseDiff(fs, args); return err },
	"check":  func(fs *flag.FlagSet, args []string) error { _, err := parseCheck(fs, args); return err },
}

func parseArgs(sub, args string) error {
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parsers[sub](fs, strings.Fields(args))
}

// TestParseFlagsRejectsBadCommandLines checks the command-line gate each
// subcommand runs before it reads any input or opens any output: report
// needs one trace file, a known -format and -top ≥ 1; diff two trace
// files; check one trace file and at least one assertion. Valid command
// lines parse.
func TestParseFlagsRejectsBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		sub, args string
		wantErr   string // "" = must parse
	}{
		{"report", "-format xml t.json", `unknown -format "xml"`},
		{"report", "-top 0 t.json", "-top 0"},
		{"report", "-top -3 t.json", "-top -3"},
		{"report", "-top x t.json", "invalid value"},
		{"report", "", "exactly one trace file"},
		{"report", "a.json b.json", "exactly one trace file"},
		{"report", "t.json", ""},
		{"report", "-format html -top 1 -o r.html -metrics m.json t.json", ""},
		{"diff", "a.json", "exactly two trace files"},
		{"diff", "a.json b.json c.json", "exactly two trace files"},
		{"diff", "-exact -max-delta-frac 0.02 a.json b.json", ""},
		{"check", "t.json", "no assertions enabled"},
		{"check", "-max-idle 0.5", "exactly one trace file"},
		{"check", "-max-idle 0.5 -min-overlap 0.1 t.json", ""},
	} {
		err := parseArgs(tc.sub, tc.args)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%s %q: unexpected error %v", tc.sub, tc.args, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s %q: error %v, want one naming %q", tc.sub, tc.args, err, tc.wantErr)
		}
	}

	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	o, err := parseReport(fs, strings.Fields("-format json -top 3 -o r.json t.json"))
	if err != nil || o.format != "json" || o.top != 3 || o.out != "r.json" || o.trace != "t.json" {
		t.Errorf("valid report command line parsed to %+v, %v", o, err)
	}
}

// TestRejectedReportLeavesOutputUnchanged runs the whole command: a report
// call with a bad -format or -top exits 2 and leaves an existing -o file
// byte-unchanged, while a valid call on the same trace writes it.
func TestRejectedReportLeavesOutputUnchanged(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(trace, []byte(`{"traceEvents":[],"displayTimeUnit":"ns"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.txt")
	keep := []byte("keep me\n")
	if err := os.WriteFile(out, keep, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"report", "-format", "xml", "-o", out, trace},
		{"report", "-top", "0", "-o", out, trace},
	} {
		code, stderr := runMain(t, bad...)
		if code != 2 || !strings.HasPrefix(stderr, "mpttrace report: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and a report error", bad, code, stderr)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, keep) {
			t.Errorf("%v: -o file now holds %q (%v), want %q", bad, got, err, keep)
		}
	}

	if code, stderr := runMain(t, "report", "-o", out, trace); code != 0 {
		t.Fatalf("valid report: exit %d, stderr %q", code, stderr)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.HasPrefix(got, []byte("# mpttrace attribution report")) {
		t.Errorf("valid report wrote %q (%v), want the text report", got, err)
	}
}
