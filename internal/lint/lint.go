// Package lint is mptlint: a suite of static analyzers that enforce the
// repo's three load-bearing invariants at the source level — bit-exact
// determinism (no map-iteration-order results, no wall-clock or global
// RNG in simulated paths), bounded parallelism (all fan-out goes through
// internal/parallel), and allocation-free steady-state kernels (no
// allocation in, or on any call path from, a *Into function).
//
// The suite deliberately does not depend on golang.org/x/tools: the
// framework below is a small offline re-implementation of the
// go/analysis surface we need (Analyzer, Pass, Reportf, //nolint
// suppression, testdata golden tests), loading type information through
// `go list -export` so `make lint` works on an air-gapped machine
// (DESIGN.md §9).
//
// Suppressing a finding requires a written reason:
//
//	//nolint:mapiter -- keys are sorted two lines down, order is laundered
//
// A bare //nolint:mptlint with no "-- reason" is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. This mirrors the
// go/analysis.Analyzer shape so the suite can migrate to the upstream
// framework wholesale if the x/tools dependency ever becomes acceptable.
// Exactly one of Run (per-package, syntactic/flow-sensitive) and
// RunProgram (whole-program, interprocedural over the call graph) is set.
type Analyzer struct {
	Name       string // short lowercase identifier, used in //nolint lists
	Doc        string // one-paragraph description: the invariant it encodes
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
}

// A Pass hands one package's syntax and types to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe p.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// A ProgramPass hands the whole program (targets plus module-local
// dependencies, with call-graph summaries) to one interprocedural
// analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyze runs the full analyzer stack over a loaded program: per-package
// analyzers over every target package, interprocedural analyzers once
// over the whole program. Findings are raw (pre-suppression) and sorted;
// suppression is a separate step (ApplyNolint).
func Analyze(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Targets() {
		for _, a := range analyzers {
			if a.Run != nil {
				a.Run(&Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
					Pkg: pkg.Types, Info: pkg.Info, diags: &diags})
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram != nil {
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, diags: &diags})
		}
	}
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// nolintRe matches "//nolint:name1,name2 -- reason". The reason (after
// " -- ") is mandatory; a directive without one is reported instead of
// honored.
var nolintRe = regexp.MustCompile(`^//\s*nolint:([a-zA-Z0-9_,]+)(.*)$`)

type nolintDirective struct {
	pos       token.Position
	names     []string // analyzer names in written order, or "mptlint"/"all" for all
	hasReason bool
	hits      map[string]bool // per-name: suppressed at least one matching finding
}

func (d *nolintDirective) covers(analyzer string) (string, bool) {
	for _, n := range d.names {
		if n == "mptlint" || n == "all" || n == analyzer {
			return n, true
		}
	}
	return "", false
}

// ApplyNolint filters diags through the //nolint directives found in
// files. Suppression is scoped to the specific line AND analyzer: a
// directive suppresses matching diagnostics on its own line and on the
// following line (so it can trail the offending line or stand alone
// above it), and only for the analyzers it names.
//
// Two directive pathologies become diagnostics themselves (analyzer
// "nolint") instead of being honored:
//
//   - a directive missing the mandatory "-- reason", so a suppression
//     always carries a written justification into review;
//   - a stale directive: one of its named analyzers ran (per ran; nil
//     means all names are checkable) but suppressed nothing on its lines.
//     Stale suppressions are how laundered violations outlive their fix —
//     or worse, how a never-valid suppression hides a later regression.
func ApplyNolint(fset *token.FileSet, files []*ast.File, diags []Diagnostic, ran []string) []Diagnostic {
	type key struct {
		file string
		line int
	}
	directives := map[key][]*nolintDirective{}
	var all []*nolintDirective
	var out []Diagnostic

	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := nolintRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				d := &nolintDirective{pos: pos, hits: map[string]bool{}}
				for _, n := range strings.Split(m[1], ",") {
					if n = strings.TrimSpace(n); n != "" {
						d.names = append(d.names, n)
					}
				}
				rest := strings.TrimSpace(m[2])
				if r, ok := strings.CutPrefix(rest, "--"); ok && strings.TrimSpace(r) != "" {
					d.hasReason = true
				}
				if !d.hasReason {
					out = append(out, Diagnostic{
						Analyzer: "nolint",
						Pos:      pos,
						Message:  "nolint directive is missing its mandatory reason (write `//nolint:name -- why this is safe`)",
					})
					continue
				}
				all = append(all, d)
				k := key{pos.Filename, pos.Line}
				directives[k] = append(directives[k], d)
				k.line++
				directives[k] = append(directives[k], d)
			}
		}
	}

	for _, d := range diags {
		suppressed := false
		for _, dir := range directives[key{d.Pos.Filename, d.Pos.Line}] {
			if name, ok := dir.covers(d.Analyzer); ok {
				dir.hits[name] = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}

	// Stale detection: only names whose analyzer actually ran are
	// checkable (a -run=allocflow invocation says nothing about a
	// //nolint:mapiter directive). The wildcard forms are checkable only
	// when the full suite ran (ran == nil).
	checkable := func(name string) bool {
		if ran == nil {
			return true
		}
		for _, r := range ran {
			if r == name {
				return true
			}
		}
		return false
	}
	for _, dir := range all {
		for _, name := range dir.names {
			if dir.hits[name] || !checkable(name) {
				continue
			}
			if (name == "mptlint" || name == "all") && ran != nil {
				continue
			}
			out = append(out, Diagnostic{
				Analyzer: "nolint",
				Pos:      dir.pos,
				Message:  fmt.Sprintf("stale suppression: nolint:%s matches no %s finding on this line; remove it (stale directives hide later regressions)", name, name),
			})
		}
	}
	sortDiagnostics(out)
	return out
}

// ---- shared AST/type helpers used by several analyzers ----

// isFloat reports whether t's underlying type is a float.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isPkgFunc reports whether call invokes a package-level function (or any
// selector) from the package with import path pkgPath.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if obj := selectionObj(info, sel); obj != nil && obj.Pkg() != nil {
		return obj.Pkg().Path() == pkgPath
	}
	return false
}

// selectionObj resolves the object a selector refers to (package function,
// method, or field), or nil.
func selectionObj(info *types.Info, sel *ast.SelectorExpr) types.Object {
	if info == nil {
		return nil
	}
	if s, ok := info.Selections[sel]; ok {
		return s.Obj()
	}
	return info.Uses[sel.Sel]
}

// isBuiltin reports whether call invokes the builtin named name
// (make/new/append/...), resolving through the type info so a local
// function shadowing the name does not count.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	if info != nil {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return true
		}
		return false
	}
	return true
}

// exprString renders e compactly for syntactic comparison (x = x + v
// accumulation detection). types.ExprString is stable for this purpose.
func exprString(e ast.Expr) string { return types.ExprString(e) }

// funcDirectives returns the "//mptlint:<name>" directives attached to a
// function declaration's doc comment.
func funcDirectives(fn *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	if fn.Doc == nil {
		return out
	}
	for _, c := range fn.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//mptlint:"); ok {
			out[strings.TrimSpace(rest)] = true
		}
	}
	return out
}
