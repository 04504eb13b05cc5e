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
	all := []figures.Entry{{ID: "fig01"}, {ID: "fig15"}, {ID: "fig17"}}
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
		es, err := selectFigures(all, tc.only)
		var ids []string
		for _, e := range es {
			ids = append(ids, e.ID)
		}
		if got := strings.Join(ids, ","); got != tc.want {
			t.Errorf("-only %q selected %q, want %q", tc.only, got, tc.want)
		}
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("-only %q: error %v, want %q", tc.only, err, tc.wantErr)
		}
	}
}

// TestOnlyMatchesFullRun: `-only id` builds just that figure, and its
// output is byte for byte the figure's section of the full run.
func TestOnlyMatchesFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the full run regenerates every figure")
	}
	var full strings.Builder
	if err := run(&full, "", false); err != nil {
		t.Fatal(err)
	}
	cat := figures.Catalog()
	rest := full.String()
	for i, e := range cat {
		if !strings.HasPrefix(rest, "=== "+e.ID+" ===\n") {
			t.Fatalf("full run: section %d does not open with %s", i, e.ID)
		}
		end := len(rest)
		if i+1 < len(cat) {
			end = strings.Index(rest, "=== "+cat[i+1].ID+" ===\n")
		}
		var one strings.Builder
		if err := run(&one, e.ID, false); err != nil {
			t.Fatal(err)
		}
		if one.String() != rest[:end] {
			t.Errorf("-only %s differs from its section of the full run", e.ID)
		}
		rest = rest[end:]
	}
}
