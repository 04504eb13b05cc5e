package lint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// Target marks packages matched by the load patterns. Non-target
	// packages are module-local dependencies loaded with syntax so the
	// interprocedural analyzers can see through cross-package calls;
	// per-package analyzers do not report on them.
	Target bool
}

// A Program is the whole unit of analysis: every module-local package in
// the dependency closure of the requested patterns, loaded with syntax,
// sharing one FileSet and one export-data importer for out-of-module
// types. The flow-sensitive analyzers (allocflow) reason transitively
// over it through the call-graph summaries (callgraph.go).
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	byPath    map[string]*Package
	summaries map[string]*funcSummary // lazily built by callgraph()
}

// Targets returns the packages the caller asked to lint.
func (p *Program) Targets() []*Package {
	var out []*Package
	for _, pkg := range p.Pkgs {
		if pkg.Target {
			out = append(out, pkg)
		}
	}
	return out
}

// TargetFiles returns the syntax files of the target packages — the scope
// //nolint directives are read from and stale-checked in. Dependency
// files keep their directives for the run that targets them.
func (p *Program) TargetFiles() []*ast.File {
	var out []*ast.File
	for _, pkg := range p.Targets() {
		out = append(out, pkg.Files...)
	}
	return out
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// LoadCached type-checks the packages matched by patterns (run from dir)
// plus every module-local dependency, and returns them as one Program. It
// works fully offline: syntax comes from go/parser and type information
// for out-of-module dependencies comes from the compiler export data that
// `go list -export` materializes in the local build cache — no module
// downloads. Test files are not loaded; the invariants the suite encodes
// are properties of product code.
//
// cacheFile optionally caches the `go list -export` call-graph data (the
// dominant cost of a lint run: it compiles export data for the whole
// dependency closure); "" disables caching. The cache key hashes go.mod
// plus every .go file's (path, size, mtime) under the module root, so any
// source change invalidates it; a hit also revalidates that the cached
// export files still exist in the build cache.
func LoadCached(dir, cacheFile string, patterns ...string) (*Program, error) {
	pkgs, err := goListCached(dir, cacheFile, patterns...)
	if err != nil {
		return nil, err
	}

	// Export data for every package in the dependency closure, keyed by
	// the resolved import path. The gc importer chases transitive
	// references through this table on demand.
	exports := map[string]string{}
	importMap := map[string]string{}
	modulePath := ""
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
		if !p.DepOnly && p.Module != nil && modulePath == "" {
			modulePath = p.Module.Path
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if to, ok := importMap[path]; ok {
			path = to
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("mptlint: no export data for %q (go list -export did not produce it)", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	prog := &Program{Fset: fset, byPath: map[string]*Package{}}
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		// Module-local dependencies load with syntax (Target=false) so
		// the call graph can see through them; out-of-module deps stay
		// export-data-only.
		inModule := p.Module != nil && p.Module.Path == modulePath
		if p.DepOnly && !inModule {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("mptlint: %s: %s", p.ImportPath, p.Error.Err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		tpkg, info, err := typecheck(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("mptlint: type-checking %s: %w", p.ImportPath, err)
		}
		pkg := &Package{
			ImportPath: p.ImportPath,
			Dir:        p.Dir,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
			Target:     !p.DepOnly,
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.byPath[p.ImportPath] = pkg
	}
	return prog, nil
}

// LoadDir loads the package rooted at dir — which need not be part of any
// `go list` pattern space (the linttest golden testdata lives in
// testdata/, which the go tool ignores) — plus any immediate
// subdirectories as in-tree dependency packages, so golden suites can pin
// cross-package behavior (an allocating callee one package away).
// Subdirectory packages import as "testdata/<base>/<sub>" and are loaded
// first; out-of-tree imports resolve to export data via `go list -export`
// exactly like LoadCached.
func LoadDir(dir string) (*Program, error) {
	fset := token.NewFileSet()
	base := filepath.Base(dir)
	mainPath := "testdata/" + base

	type rawPkg struct {
		importPath string
		dir        string
		files      []*ast.File
		target     bool
	}
	var raw []*rawPkg
	imports := map[string]bool{}

	parseDir := func(d, importPath string, target bool) error {
		entries, err := os.ReadDir(d)
		if err != nil {
			return err
		}
		p := &rawPkg{importPath: importPath, dir: d, target: target}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(d, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
			for _, imp := range f.Imports {
				if ip, err := strconv.Unquote(imp.Path.Value); err == nil && ip != "unsafe" {
					imports[ip] = true
				}
			}
		}
		if len(p.files) == 0 {
			if target {
				return fmt.Errorf("mptlint: no Go files in %s", d)
			}
			return nil
		}
		raw = append(raw, p)
		return nil
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Dependencies first so the chain importer can resolve them when the
	// main package type-checks.
	var subs []string
	for _, e := range entries {
		if e.IsDir() {
			subs = append(subs, e.Name())
		}
	}
	sort.Strings(subs)
	for _, s := range subs {
		if err := parseDir(filepath.Join(dir, s), path.Join(mainPath, s), false); err != nil {
			return nil, err
		}
	}
	if err := parseDir(dir, mainPath, true); err != nil {
		return nil, err
	}

	// Resolve out-of-tree imports through go list -export.
	exports := map[string]string{}
	importMap := map[string]string{}
	var extPaths []string
	for p := range imports {
		if !strings.HasPrefix(p, "testdata/") {
			extPaths = append(extPaths, p)
		}
	}
	if len(extPaths) > 0 {
		sort.Strings(extPaths)
		pkgs, err := goList(dir, extPaths...)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			for from, to := range p.ImportMap {
				importMap[from] = to
			}
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if to, ok := importMap[path]; ok {
			path = to
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("mptlint: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := &chainImporter{
		local: map[string]*types.Package{},
		base:  importer.ForCompiler(fset, "gc", lookup),
	}

	prog := &Program{Fset: fset, byPath: map[string]*Package{}}
	for _, p := range raw {
		tpkg, info, err := typecheck(fset, p.importPath, p.files, imp)
		if err != nil {
			return nil, fmt.Errorf("mptlint: type-checking %s: %w", p.dir, err)
		}
		imp.local[p.importPath] = tpkg
		pkg := &Package{
			ImportPath: p.importPath,
			Dir:        p.dir,
			Fset:       fset,
			Files:      p.files,
			Types:      tpkg,
			Info:       info,
			Target:     p.target,
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.byPath[p.importPath] = pkg
	}
	return prog, nil
}

// chainImporter resolves in-tree testdata packages from source-checked
// results first and everything else from export data.
type chainImporter struct {
	local map[string]*types.Package
	base  types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.base.Import(path)
}

// goList shells out to `go list -json -export -deps`, which both resolves
// the pattern set and compiles export data into the build cache — all
// local operations (this module has no external dependencies).
func goList(dir string, patterns ...string) ([]*listPkg, error) {
	args := append([]string{"list", "-json", "-export", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(outPipe)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("mptlint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("mptlint: go list failed: %v\n%s", err, strings.TrimSpace(stderr.String()))
	}
	return pkgs, nil
}

// listCache is the on-disk cache payload for goListCached.
type listCache struct {
	Key  string     `json:"key"`
	Pkgs []*listPkg `json:"pkgs"`
}

// goListCached wraps goList with the call-graph data cache. On a key hit
// it also verifies that every cached export-data file still exists (the
// build cache can be pruned underneath us); any miss falls through to a
// fresh `go list -export` run and rewrites the cache.
func goListCached(dir, cacheFile string, patterns ...string) ([]*listPkg, error) {
	if cacheFile == "" {
		return goList(dir, patterns...)
	}
	key, err := treeKey(dir, patterns)
	if err != nil {
		return goList(dir, patterns...)
	}
	if data, err := os.ReadFile(cacheFile); err == nil {
		var c listCache
		if json.Unmarshal(data, &c) == nil && c.Key == key && exportsExist(c.Pkgs) {
			return c.Pkgs, nil
		}
	}
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	if data, err := json.Marshal(listCache{Key: key, Pkgs: pkgs}); err == nil {
		if err := os.MkdirAll(filepath.Dir(cacheFile), 0o755); err == nil {
			_ = os.WriteFile(cacheFile, data, 0o644)
		}
	}
	return pkgs, nil
}

func exportsExist(pkgs []*listPkg) bool {
	for _, p := range pkgs {
		if p.Export != "" {
			if _, err := os.Stat(p.Export); err != nil {
				return false
			}
		}
	}
	return true
}

// treeKey hashes the load inputs: toolchain version, patterns, go.mod,
// and the (path, size, mtime) of every .go file under the module root.
func treeKey(dir string, patterns []string) (string, error) {
	root := dir
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return "", fmt.Errorf("mptlint: no go.mod above %s", dir)
		}
		root = parent
	}
	h := sha256.New()
	fmt.Fprintf(h, "go=%s patterns=%q\n", runtime.Version(), patterns)
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	h.Write(mod)
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || (strings.HasPrefix(name, ".") && p != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d %d\n", filepath.ToSlash(rel), fi.Size(), fi.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// typecheck runs go/types over one package's parsed files with full
// object resolution recorded.
func typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err != nil {
		return nil, nil, err
	}
	return tpkg, info, nil
}
