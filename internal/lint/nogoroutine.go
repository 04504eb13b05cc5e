package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// goroutineExemptPkgs are the packages allowed to spawn goroutines and use
// raw synchronization: internal/parallel is the one sanctioned fan-out
// layer (bounded deterministic pools, DESIGN.md §7) — everything else must
// go through it so worker counts stay bounded and results stay
// index-ordered.
var goroutineExemptPkgs = map[string]bool{
	"mptwino/internal/parallel": true,
}

// NoGoroutine flags raw `go` statements, sync.WaitGroup values, and
// errgroup imports outside internal/parallel. Ad-hoc goroutines were how
// unbounded, schedule-dependent fan-out crept into early drafts of the
// sweep code; the invariant is that every concurrent code path is one of
// the pool primitives (parallel.ForEach/ForEachWorker/ForEachPhase/Map),
// whose determinism contract is tested at worker counts {1,2,8} under
// -race. Calls *into* parallel are of course fine — the analyzer looks at
// spawn sites, not call sites.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc: "flags go statements, sync.WaitGroup, and errgroup outside " +
		"internal/parallel (all fan-out must use the bounded deterministic pool)",
	Run: runNoGoroutine,
}

func runNoGoroutine(pass *Pass) {
	if pass.Pkg != nil && goroutineExemptPkgs[pass.Pkg.Path()] {
		return
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if strings.HasSuffix(path, "/errgroup") {
				pass.Reportf(imp.Pos(), "errgroup import outside internal/parallel: use parallel.ForEach/ForEachWorker/Map (bounded pool, index-ordered results)")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw go statement outside internal/parallel: use parallel.ForEach/ForEachWorker/Map")
			case *ast.SelectorExpr:
				if isWaitGroupRef(pass.Info, n) {
					pass.Reportf(n.Pos(), "sync.WaitGroup outside internal/parallel: the pool primitives already provide the join barrier")
				}
			}
			return true
		})
	}
}

// isWaitGroupRef reports whether sel is a reference to the sync.WaitGroup
// type (in a var decl, struct field, composite literal, or conversion).
func isWaitGroupRef(info *types.Info, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "WaitGroup" {
		return false
	}
	obj := selectionObj(info, sel)
	tn, ok := obj.(*types.TypeName)
	return ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync"
}
