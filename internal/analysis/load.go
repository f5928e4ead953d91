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

// Loader parses and type-checks packages on a shared FileSet with a
// shared stdlib source importer, so repeated loads (the whole-repo
// suite run, then per-analyzer golden packages) reuse dependency
// type-checking work and produce mutually comparable token positions.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader backed by the stdlib source importer,
// which resolves both standard-library and intra-module import paths
// from source — no compiled export data and no network needed.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// goListPackage is the subset of `go list -json` output the loader
// consumes.
type goListPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
}

// LoadPatterns enumerates the non-test packages matching patterns
// (run via `go list` with dir as working directory — dir must lie
// inside the module) and loads each one.
func (l *Loader) LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,Name,GoFiles"}, patterns...)
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
		if len(gp.GoFiles) == 0 {
			continue
		}
		pkg, err := l.load(gp.Dir, gp.ImportPath, gp.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %v", gp.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
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
		Importer: l.imp,
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
