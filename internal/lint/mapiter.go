package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIter flags `range` over a map whose body leaks the nondeterministic
// iteration order into a result: appending to a slice, accumulating a
// float, or sending on a channel. This is the exact bug class that was
// fixed by hand in internal/noc — ejection/failure sweeps originally
// ranged over maps and produced schedule-dependent results until
// construction-ordered port lists (now Network.inPorts) replaced them
// (DESIGN.md §7). A range that only
// *reads* the map, or that writes to a slot keyed by the map key, is
// order-independent and not flagged; collecting keys and sorting them
// immediately after the loop is also recognized and allowed.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: "flags map iteration whose order leaks into results " +
		"(append, float accumulation, channel send in the loop body)",
	Run: runMapIter,
}

func runMapIter(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypeOf(rs.X); t == nil || !isMap(t) {
				return true
			}
			checkMapRangeBody(pass, file, rs)
			return true
		})
	}
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRangeBody(pass *Pass, file *ast.File, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Nested map ranges report on their own.
			if n != rs {
				if t := pass.TypeOf(n.X); t != nil && isMap(t) {
					return false
				}
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration: receive order depends on map iteration order")
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, file, rs, n)
		}
		return true
	})
}

func checkMapRangeAssign(pass *Pass, file *ast.File, rs *ast.RangeStmt, as *ast.AssignStmt) {
	// x = append(x, ...) — the element order of x becomes map order.
	if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltin(pass.Info, call, "append") {
				continue
			}
			if i < len(as.Lhs) && sortedAfterLoop(pass, file, rs, as.Lhs[i]) {
				continue
			}
			pass.Reportf(call.Pos(), "append inside map iteration: slice element order depends on map iteration order (sort afterwards, or iterate a sorted key slice)")
		}
	}
	// acc += v / acc = acc + v where acc is a float: float addition is
	// not associative, so the accumulated bits depend on map order.
	if lhs, ok := floatAccumTarget(pass.Info, as); ok {
		// Writes to a slot keyed by this iteration's map key are
		// per-key and therefore order-independent.
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && keyedByRangeVar(pass, rs, idx.Index) {
			return
		}
		pass.Reportf(as.Pos(), "float accumulation inside map iteration: result bits depend on map iteration order (iterate a sorted key slice)")
	}
}

// floatAccumTarget reports whether as accumulates a float (op= with an
// additive/multiplicative operator, or x = x + v) and returns the target.
func floatAccumTarget(info *types.Info, as *ast.AssignStmt) (ast.Expr, bool) {
	if len(as.Lhs) != 1 {
		return nil, false
	}
	lhs := as.Lhs[0]
	if info == nil || !isFloat(info.TypeOf(lhs)) {
		return nil, false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return lhs, true
	case token.ASSIGN:
		bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return nil, false
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			if exprString(bin.X) == exprString(lhs) || exprString(bin.Y) == exprString(lhs) {
				return lhs, true
			}
		}
	}
	return nil, false
}

// keyedByRangeVar reports whether index mentions the range statement's
// key (or value) variable, meaning the write lands in a per-key slot.
func keyedByRangeVar(pass *Pass, rs *ast.RangeStmt, index ast.Expr) bool {
	var rangeObjs []types.Object
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok && v != nil {
			if obj := pass.Info.Defs[id]; obj != nil {
				rangeObjs = append(rangeObjs, obj)
			} else if obj := pass.Info.Uses[id]; obj != nil {
				rangeObjs = append(rangeObjs, obj)
			}
		}
	}
	found := false
	ast.Inspect(index, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		use := pass.Info.Uses[id]
		for _, o := range rangeObjs {
			if use == o {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortedAfterLoop reports whether target (an identifier) is passed to a
// sort.*/slices.Sort* call in a statement that follows rs inside the same
// enclosing block — the standard collect-keys-then-sort idiom, which
// launders the map order away.
func sortedAfterLoop(pass *Pass, file *ast.File, rs *ast.RangeStmt, target ast.Expr) bool {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	// Find the block statement that directly contains rs.
	var block *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if b, ok := n.(*ast.BlockStmt); ok {
			for _, st := range b.List {
				if st == rs {
					block = b
				}
			}
		}
		return block == nil
	})
	if block == nil {
		return false
	}
	after := false
	for _, st := range block.List {
		if st == rs {
			after = true
			continue
		}
		if !after {
			continue
		}
		sorted := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || sorted {
				return !sorted
			}
			if !isPkgFunc(pass.Info, call, "sort") && !isPkgFunc(pass.Info, call, "slices") {
				return true
			}
			for _, arg := range call.Args {
				found := false
				ast.Inspect(arg, func(m ast.Node) bool {
					if aid, ok := m.(*ast.Ident); ok && pass.Info.Uses[aid] == obj {
						found = true
					}
					return !found
				})
				if found {
					sorted = true
				}
			}
			return !sorted
		})
		if sorted {
			return true
		}
	}
	return false
}
