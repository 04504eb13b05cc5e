package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func parseArgs(args string) (options, error) {
	fs := flag.NewFlagSet("mptsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, strings.Fields(args))
}

// TestParseFlagsRejectsBadCounts checks the command-line gate main runs
// before any output: a worker count below 1 is rejected in every mode, a
// batch below 1 in layer mode, and valid command lines parse.
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
}
