package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"
)

// TestRejectsBadCommandLinesBeforeLoading checks the gate run applies
// before it loads any package: an analyzer name the suite does not have,
// an unknown -format and a removed flag each exit 2 with an mptlint error.
// The pattern cannot load, so a loader error in their place would mean the
// check came too late.
func TestRejectsBadCommandLinesBeforeLoading(t *testing.T) {
	for _, tc := range []struct{ args, wantErr string }{
		{"-run nosuch", `unknown analyzer "nosuch"`},
		{"-run mapiter,noalloc", `unknown analyzer "noalloc"`},
		{"-format json", `unknown -format "json"`},
		{"-format xml", `unknown -format "xml"`},
		{"-baseline x", "flag provided but not defined: -baseline"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(strings.Fields(tc.args), "./no-such-dir"), &stdout, &stderr)
		msg := stderr.String()
		if code != 2 || stdout.Len() != 0 || !strings.Contains(msg, "mptlint: ") || !strings.Contains(msg, tc.wantErr) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 and %q", tc.args, code, stdout.String(), msg, tc.wantErr)
		}
	}

	fs := flag.NewFlagSet("mptlint", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, strings.Fields("-run allocflow -format sarif ./internal/..."))
	if err != nil || len(o.analyzers) != 1 || o.analyzers[0].Name != "allocflow" || o.format != "sarif" ||
		strings.Join(o.ran, ",") != "allocflow" || strings.Join(o.patterns, ",") != "./internal/..." {
		t.Errorf("valid command line parsed to %+v, %v", o, err)
	}
}

// TestListNamesTheSuite pins the suite: one analyzer per invariant, in
// reporting order.
func TestListNamesTheSuite(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"-list"}, &stdout, io.Discard); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, ","), "mapiter,nogoroutine,notime,sharedwrite,detselect,allocflow"; got != want {
		t.Errorf("-list names %s, want %s", got, want)
	}
}
