package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SharedWrite generalizes the old floatorder closure check to writes of
// every type: inside a closure handed to an internal/parallel fan-out
// primitive, any write whose target is captured from the enclosing scope
// (directly or through an alias) must be provably partitioned by the
// worker/item index, or two workers race on it and the stored value —
// float bits, slice contents, map entries — depends on the schedule.
//
// "Provably partitioned" is decided by the dataflow engine (cfg.go):
//
//   - some index in the write's index chain is derived from a closure
//     parameter — flow-sensitively, so loop counters seeded from the item
//     index (`off := i*stride; ...; dst[off+k] = v`) qualify, while a
//     counter reassigned from captured state does not; or
//   - the write goes through a local alias carved out of captured state
//     with parameter-derived bounds (`row := dst[i*w : (i+1)*w]`,
//     `s := scratch[worker]`) — the alias layer classifies those
//     partitioned, and plain `q := dst` or `p := &dst[3]` shared.
//
// Unindexed writes to captured variables (scalars, the slice header
// itself, struct fields) are always schedule-dependent and reported; the
// accumulation form gets the fold-order message floatorder used to own.
// The fix is the per-worker-partials idiom: each worker writes its own
// slot, the caller folds slots in index order (parallel.ForEachWorker's
// contract).
var SharedWrite = &Analyzer{
	Name: "sharedwrite",
	Doc: "flags writes to captured variables/aliases inside parallel " +
		"closures that are not provably partitioned by the worker/item index",
	Run: runSharedWrite,
}

// parallelClosureFuncs are the fan-out entry points whose closure
// argument runs concurrently with integer work indices.
var parallelClosureFuncs = map[string]bool{
	"ForEach":       true,
	"ForEachWorker": true,
	"ForEachPhase":  true,
	"Map":           true,
}

// unseededParams counts, per fan-out entry point, the leading integer
// closure parameters that are not work indices: ForEachPhase's phase is
// the same for every item running at once, so a write indexed by it
// alone is shared by every worker.
var unseededParams = map[string]int{
	"ForEachPhase": 1,
}

func runSharedWrite(pass *Pass) {
	if pass.Pkg != nil && pass.Pkg.Path() == "mptwino/internal/parallel" {
		return // the pool's own internals manage shared state by design
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(pass.Info, call, "mptwino/internal/parallel") {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !parallelClosureFuncs[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkSharedWrites(pass, sel.Sel.Name, lit)
				}
			}
			return true
		})
	}
}

// aliasClass classifies what a closure-local variable may refer to.
type aliasClass int

const (
	aliasNone        aliasClass = iota // fresh/private value
	aliasPartitioned                   // worker-private region of captured state
	aliasShared                        // may overlap other workers' view of captured state
)

func checkSharedWrites(pass *Pass, funcName string, lit *ast.FuncLit) {
	// Seeds: the closure's integer parameters — the worker/item indices
	// the fan-out primitive feeds it — past the ones that are not
	// (unseededParams).
	seeds := map[types.Object]bool{}
	var params []types.Object
	skip := unseededParams[funcName]
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					params = append(params, obj)
					if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
						if len(params) > skip {
							seeds[obj] = true
						}
					}
				}
			}
		}
	}
	flow := analyzeFlow(pass.Info, lit.Body, params)
	deriv := flow.newDerivation(seeds)
	class := classifyAliases(pass, lit, flow, deriv)

	captured := func(obj types.Object) bool {
		_, isVar := obj.(*types.Var)
		return isVar && declaredOutside(obj, lit)
	}

	// sharedBase reports whether writing through base can touch state
	// another worker sees: directly captured (isCaptured=true) or through
	// a shared local alias.
	sharedBase := func(base ast.Expr) (obj types.Object, shared, isCaptured bool) {
		obj = exprObject(pass.Info, base)
		if obj == nil {
			return nil, false, false
		}
		if captured(obj) {
			return obj, true, true
		}
		if class[obj] == aliasShared {
			return obj, true, false
		}
		return nil, false, false
	}

	report := func(n ast.Node, obj types.Object, accum, isCaptured bool) {
		what := fmt.Sprintf("captured %q", obj.Name())
		if !isCaptured {
			what = fmt.Sprintf("%q, which aliases captured state", obj.Name())
		}
		if accum {
			pass.Reportf(n.Pos(), "%s is accumulated inside a parallel.%s closure: fold order depends on the schedule; give each worker its own partial slot (indexed by the closure parameter) and fold the slots in index order", what, funcName)
		} else {
			pass.Reportf(n.Pos(), "write to %s inside a parallel.%s closure is not provably partitioned by the worker/item index: workers race and the result depends on the schedule", what, funcName)
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested closures are their own fan-out's concern
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				accum := false
				if i == 0 {
					if _, ok := floatAccumTarget(pass.Info, n); ok {
						accum = true
					}
					switch n.Tok {
					case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
						token.REM_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN,
						token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
						accum = true
					}
				}
				checkWriteTarget(pass, flow, deriv, sharedBase, report, n, lhs, accum)
			}
		case *ast.IncDecStmt:
			checkWriteTarget(pass, flow, deriv, sharedBase, report, n, n.X, true)
		case *ast.CallExpr:
			// copy(dst, src) writes through its first argument.
			if isBuiltin(pass.Info, n, "copy") && len(n.Args) == 2 {
				checkWriteTarget(pass, flow, deriv, sharedBase, report, n, n.Args[0], false)
			}
		}
		return true
	})
}

// checkWriteTarget inspects one write destination expression. It peels
// the index/deref/field chain, resolves the base, and reports unless the
// write is provably worker-private.
func checkWriteTarget(pass *Pass, flow *flowInfo, deriv *derivation,
	sharedBase func(ast.Expr) (types.Object, bool, bool),
	report func(ast.Node, types.Object, bool, bool),
	at ast.Node, target ast.Expr, accum bool) {

	base := target
	var indexes []ast.Expr
	var sliceLows []ast.Expr
	touched := false // true once the chain dereferences storage (not a rebinding)
peel:
	for {
		switch x := ast.Unparen(base).(type) {
		case *ast.IndexExpr:
			indexes = append(indexes, x.Index)
			base, touched = x.X, true
		case *ast.SliceExpr:
			if x.Low != nil {
				sliceLows = append(sliceLows, x.Low)
			}
			base, touched = x.X, true
		case *ast.StarExpr:
			base, touched = x.X, true
		case *ast.SelectorExpr:
			// Selecting through a package name is not a write to shared
			// state we can resolve; selecting a field keeps peeling.
			if obj := exprObject(pass.Info, x.X); obj == nil {
				return
			}
			base, touched = x.X, true
		default:
			break peel
		}
	}

	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj, shared, isCaptured := sharedBase(base)
	if !shared {
		return
	}
	if !touched && !isCaptured {
		return // rebinding a closure-local alias variable, not a shared write
	}
	// Safe if any index (or explicit slice offset, for copy targets like
	// dst[off:off+n]) is derived from the worker/item parameter at this
	// program point.
	for _, idx := range append(indexes, sliceLows...) {
		if deriv.exprDerived(idx, at) {
			return
		}
	}
	report(at, obj, accum, isCaptured)
}

// classifyAliases runs the conservative alias fixpoint over the closure
// body: which locals are worker-private carvings of captured state
// (partitioned) and which may overlap another worker's region (shared).
func classifyAliases(pass *Pass, lit *ast.FuncLit, flow *flowInfo, deriv *derivation) map[types.Object]aliasClass {
	class := map[types.Object]aliasClass{}
	captured := func(obj types.Object) bool {
		_, isVar := obj.(*types.Var)
		return isVar && declaredOutside(obj, lit)
	}
	merge := func(obj types.Object, c aliasClass) bool {
		if c > class[obj] {
			class[obj] = c
			return true
		}
		return false
	}

	// One aliasing def: lhsObj = chain(rhs). Returns whether obj's class
	// changed.
	applyDef := func(at ast.Node, lhsObj types.Object, rhs ast.Expr) bool {
		if !isRefType(lhsObj.Type()) {
			return false
		}
		e := rhs
		derivedStep := false
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.UnaryExpr:
				if x.Op != token.AND {
					return false
				}
				e = x.X
			case *ast.SliceExpr:
				if x.Low != nil && deriv.exprDerived(x.Low, at) {
					derivedStep = true
				}
				e = x.X
			case *ast.IndexExpr:
				if deriv.exprDerived(x.Index, at) {
					derivedStep = true
				}
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.Ident:
				root := exprObject(pass.Info, x)
				if root == nil {
					return false
				}
				switch {
				case class[root] == aliasPartitioned:
					return merge(lhsObj, aliasPartitioned)
				case captured(root) || class[root] == aliasShared:
					if derivedStep {
						return merge(lhsObj, aliasPartitioned)
					}
					return merge(lhsObj, aliasShared)
				}
				return false
			default:
				return false
			}
		}
	}

	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
					return true
				}
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					obj := exprObject(pass.Info, lhs)
					if obj == nil || declaredOutside(obj, lit) {
						continue
					}
					if applyDef(n, obj, n.Rhs[i]) {
						changed = true
					}
				}
			case *ast.DeclStmt:
				if gd, ok := n.Decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for i, name := range vs.Names {
							obj := pass.Info.Defs[name]
							if obj == nil || i >= len(vs.Values) {
								continue
							}
							if applyDef(n, obj, vs.Values[i]) {
								changed = true
							}
						}
					}
				}
			case *ast.RangeStmt:
				// `for i, row := range grid` over captured grid: the
				// value variable aliases a shared element — but the
				// element is selected by the range index, which is NOT
				// worker-derived, so it stays shared.
				if n.Value != nil {
					obj := exprObject(pass.Info, n.Value)
					root := exprObject(pass.Info, n.X)
					if obj != nil && root != nil && isRefType(obj.Type()) &&
						(captured(root) || class[root] == aliasShared) {
						if merge(obj, aliasShared) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return class
}

// isRefType reports whether t can alias backing storage: slices,
// pointers, and maps.
func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}
