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
// batch below 1 in layer mode, a -faults list that is malformed, names a
// module outside [0, -workers) or fails every worker, and valid command
// lines parse.
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
