package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnusedAPI keeps the exported surface equal to what the module calls:
// an exported func, method, const, var, type or struct field of a
// non-main package that no non-test file references, other than its
// own declaration, is a finding. References from the declaring
// package's own code count; `_test.go` files are never loaded, so a
// name only tests call is reported. A method whose name and signature
// match a method of any interface type in the loaded packages or their
// imports is exempt, since an interface value may call it.
//
// The reference set spans every loaded package, so the findings are
// only sound when the whole module is loaded; cmd/multinetlint skips
// this analyzer on a subset run.
var UnusedAPI = &Analyzer{
	Name: "unusedapi",
	Doc: "report exported funcs, methods, consts, vars, types and struct fields " +
		"that no non-test file of the module references",
	Run: runUnusedAPI,
}

// Refs is what RunAnalyzers gathers over every loaded package for
// unusedapi: the declarations some non-test file references, and the
// method signatures of every interface type, by method name. The
// loader checks each package once, so a declaration has one
// types.Object wherever it is referenced.
type Refs struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Signature
}

// newRefs indexes the references and interface methods of pkgs and of
// every package they import.
func newRefs(pkgs []*Package) *Refs {
	r := &Refs{used: map[types.Object]bool{}, ifaces: map[string][]*types.Signature{}}
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if obj.Pkg() != nil {
				r.used[origin(obj)] = true
			}
		}
		// Every interface type expression, including unexported and
		// function-local ones.
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				r.addInterface(tv.Type)
			}
		}
		r.addImports(pkg.Types, seen)
	}
	return r
}

// origin maps a member of an instantiated generic type or function to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// addImports records the package-level interface types of everything
// pkg imports, transitively.
func (r *Refs) addImports(pkg *types.Package, seen map[*types.Package]bool) {
	for _, imp := range pkg.Imports() {
		if seen[imp] {
			continue
		}
		seen[imp] = true
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				r.addInterface(tn.Type())
			}
		}
		r.addImports(imp, seen)
	}
}

func (r *Refs) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		r.ifaces[m.Name()] = append(r.ifaces[m.Name()], m.Type().(*types.Signature))
	}
}

// satisfies reports whether fn's name and signature match a method of
// some indexed interface (types.Identical ignores parameter names).
func (r *Refs) satisfies(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	for _, want := range r.ifaces[fn.Name()] {
		if types.Identical(sig, want) {
			return true
		}
	}
	return false
}

func runUnusedAPI(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	report := func(id *ast.Ident, kind string) {
		obj := pass.TypesInfo.Defs[id]
		if obj == nil || !id.IsExported() || pass.Refs.used[obj] {
			return
		}
		if fn, ok := obj.(*types.Func); ok && kind == "method" && pass.Refs.satisfies(fn) {
			return
		}
		pass.Reportf(id.Pos(), "exported %s %s is referenced by no non-test file of the module", kind, id.Name)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					report(d.Name, "func")
				} else {
					report(d.Name, "method")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, id := range s.Names {
							report(id, kind)
						}
					case *ast.TypeSpec:
						report(s.Name, "type")
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
							for _, f := range st.Fields.List {
								for _, id := range f.Names {
									report(id, "field")
								}
							}
						}
					}
				}
			}
		}
	}
	return nil
}
