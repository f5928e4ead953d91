package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one parsed, type-checked target package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects non-fatal type-check problems (the checker is
	// run in tolerant mode so one bad dependency cannot hide findings
	// in unrelated packages).
	TypeErrors []error
}

// Loader parses and type-checks packages on one FileSet, each
// non-standard package once: it is the types.Importer of the packages
// it checks, and answers their imports from the packages it has
// already checked, so every declaration has one types.Object across
// all of them and across repeated LoadPatterns calls (the whole-repo
// suite run, then the per-analyzer golden packages). The standard
// library alone is imported through the stdlib source importer.
type Loader struct {
	Fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
}

// NewLoader returns a loader that reads everything from source: no
// compiled export data and no network needed.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*Package{}}
}

// Import implements types.Importer: a package this loader has checked,
// else a standard-library package from source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// goListPackage is the subset of `go list -json` output the loader
// consumes.
type goListPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// LoadPatterns lists the packages matching patterns and everything
// they import, dependencies first (run via `go list -deps` with dir as
// working directory — dir must lie inside the module), type-checks
// each non-standard one it has not checked yet, and returns the
// non-test packages the patterns name.
func (l *Loader) LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,Name,GoFiles,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []*Package
	dec := json.NewDecoder(&out)
	for dec.More() {
		var gp goListPackage
		if err := dec.Decode(&gp); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if gp.Standard || len(gp.GoFiles) == 0 {
			continue
		}
		pkg := l.pkgs[gp.ImportPath]
		if pkg == nil {
			var err error
			if pkg, err = l.load(gp.Dir, gp.ImportPath, gp.GoFiles); err != nil {
				return nil, fmt.Errorf("loading %s: %v", gp.ImportPath, err)
			}
			l.pkgs[gp.ImportPath] = pkg
		}
		if !gp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// load parses the named files of one package and type-checks them in
// tolerant mode.
func (l *Loader) load(dir, importPath string, fileNames []string) (*Package, error) {
	sort.Strings(fileNames)
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if tpkg == nil {
		return nil, fmt.Errorf("type-checking %s failed: %v", importPath, firstErr(pkg.TypeErrors))
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

func firstErr(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0]
}
