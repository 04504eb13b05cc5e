package lint

import "fmt"

// All returns the full mptlint suite in reporting order. Each analyzer
// encodes one of the repo's structural invariants; DESIGN.md §9 documents
// the mapping and the suppression policy.
func All() []*Analyzer {
	return []*Analyzer{
		MapIter,
		NoGoroutine,
		NoTime,
		SharedWrite,
		DetSelect,
		AllocFlow,
	}
}

// ByName resolves an analyzer selection (empty = all) in suite order. An
// unknown name is an error, so a selection naming a removed or misspelled
// analyzer fails instead of silently running a partial suite.
func ByName(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for _, n := range names {
		if want[n] {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	return out, nil
}
