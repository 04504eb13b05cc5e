package main

import (
	"strings"
	"testing"

	"mptwino/internal/figures"
)

// TestSelectFigures checks the -only filter: it keeps the listed figures
// in catalog order and rejects a list naming an unknown id, so the
// command prints no figure for it.
func TestSelectFigures(t *testing.T) {
	all := []figures.Result{{ID: "fig01"}, {ID: "fig15"}, {ID: "fig17"}}
	for _, tc := range []struct {
		only, want, wantErr string
	}{
		{"", "fig01,fig15,fig17", ""},
		{"fig17,fig01", "fig01,fig17", ""},
		{" fig15 ,fig15", "fig15", ""},
		{"fig15,bogus", "", `unknown figure id "bogus"`},
		{"fig1", "", `unknown figure id "fig1"`},
		{",", "", `unknown figure id ""`},
	} {
		rs, err := selectFigures(all, tc.only)
		var ids []string
		for _, r := range rs {
			ids = append(ids, r.ID)
		}
		if got := strings.Join(ids, ","); got != tc.want {
			t.Errorf("-only %q selected %q, want %q", tc.only, got, tc.want)
		}
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("-only %q: error %v, want %q", tc.only, err, tc.wantErr)
		}
	}
}
