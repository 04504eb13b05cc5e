package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"mptwino/internal/lint"
)

// A plain `mptlint ./...` passes ran == nil, which the golden harness
// never does: there every directive name is checkable, so a leftover
// directive naming a removed analyzer reports stale, and the wildcard is
// stale-checked only on that full run.
func TestApplyNolintFullRunStale(t *testing.T) {
	const src = `package p

func f(xs []int) int {
	s := xs[0] //nolint:noalloc -- leftover from a removed analyzer
	s += xs[1] //nolint:floatorder -- leftover from a removed analyzer
	s += xs[2] //nolint:mptlint -- wildcard that suppresses nothing
	return s
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, a := range lint.All() {
		all = append(all, a.Name)
	}
	for _, tc := range []struct {
		ran  []string
		want []string // stale names, in line order
	}{
		{nil, []string{"noalloc", "floatorder", "mptlint"}},
		{all, nil},
	} {
		var got []string
		for _, d := range lint.ApplyNolint(fset, []*ast.File{f}, nil, tc.ran) {
			name, ok := strings.CutPrefix(d.Message, "stale suppression: nolint:")
			if !ok || d.Analyzer != "nolint" {
				t.Fatalf("ran=%v: unexpected diagnostic %v", tc.ran, d)
			}
			got = append(got, strings.Fields(name)[0])
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("ran=%v: stale %v, want %v", tc.ran, got, tc.want)
		}
	}
}
