package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPath enforces the zero-alloc pin (PR 4/5/7) on functions opted in
// with a //multinet:hotpath doc-comment pragma: no closure allocation,
// no fmt, no map allocation, no append through escaping slices, and no
// interface conversion that boxes a non-pointer-shaped value.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "report heap-allocating constructs (closures, fmt, map literals, " +
		"escaping appends, boxing interface conversions) in //multinet:hotpath functions",
	Run: runHotPath,
}

// hotPathPragma marks a function as part of the allocation-free hot
// path.
const hotPathPragma = "multinet:hotpath"

func runHotPath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasPragma(fd.Doc, hotPathPragma) {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
	return nil
}

// hasPragma reports whether any line of doc is the given pragma.
func hasPragma(doc *ast.CommentGroup, pragma string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), pragma) {
			return true
		}
	}
	return false
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocated in hot path %s: use a package-level func with ScheduleArg-style explicit state instead", fd.Name.Name)
			return false // the literal itself is the allocation; don't double-report its body
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map literal allocated in hot path %s", fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, n)
		case *ast.AssignStmt:
			checkHotAssignBoxing(pass, fd, n)
		}
		return true
	})
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	// Explicit conversion to an interface type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && types.IsInterface(tv.Type) {
			reportBoxing(pass, fd, call.Args[0], tv.Type)
		}
		return
	}

	// Builtins: make(map[...]...) allocates; append through a
	// non-local slice expression re-allocates out of the caller's
	// control (append to a plain local keeps the zero-alloc pin as
	// long as the local never escapes — the compiler stack-allocates
	// or the caller amortises it explicitly).
	if isBuiltin(pass.TypesInfo, call.Fun, "make") {
		if tv, ok := pass.TypesInfo.Types[call]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(call.Pos(), "map allocated with make in hot path %s", fd.Name.Name)
			}
		}
		return
	}
	if isBuiltin(pass.TypesInfo, call.Fun, "append") {
		if len(call.Args) > 0 && !isLocalVar(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "append to escaping slice %s in hot path %s: growth allocates outside the pool discipline (annotate //lint:allow hotpath if capacity is amortised deliberately)", exprText(call.Args[0]), fd.Name.Name)
		}
		return
	}

	// fmt is allocation-heavy by construction.
	if fn := typesFunc(pass.TypesInfo, call.Fun); fn != nil && funcPkgPath(fn) == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s call in hot path %s", fn.Name(), fd.Name.Name)
	}

	// Implicit boxing at call boundaries: a concrete non-pointer-shaped
	// argument passed for an interface parameter heap-allocates the
	// data word.
	sig := callSignature(pass.TypesInfo, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) {
			reportBoxing(pass, fd, arg, pt)
		}
	}
}

// checkHotAssignBoxing flags assignments that box a concrete value
// into an interface-typed destination.
func checkHotAssignBoxing(pass *Pass, fd *ast.FuncDecl, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt, ok := pass.TypesInfo.Types[as.Lhs[i]]
		if !ok || !types.IsInterface(lt.Type) {
			continue
		}
		reportBoxing(pass, fd, as.Rhs[i], lt.Type)
	}
}

// reportBoxing reports arg if converting it to the interface type dst
// would heap-allocate: its concrete type is not pointer-shaped (one
// word that the runtime can store directly in the iface data word).
func reportBoxing(pass *Pass, fd *ast.FuncDecl, arg ast.Expr, dst types.Type) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || types.IsInterface(tv.Type) {
		return // nil and interface-to-interface conversions don't box
	}
	if tv.Value != nil {
		return // constants box to static data, not a heap allocation
	}
	if pointerShaped(tv.Type) {
		return
	}
	pass.Reportf(arg.Pos(), "interface conversion boxes %s in hot path %s: pass a pointer-shaped value (the engine's ScheduleArg and SubscribeDown slots carry pointers for exactly this reason)", tv.Type.String(), fd.Name.Name)
}

// pointerShaped reports whether values of t fit the interface data
// word without allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// isLocalVar reports whether e is a plain identifier naming a
// function-local (non-field, non-package-level) variable.
func isLocalVar(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Parent() != nil && v.Parent() != pass.Pkg.Scope() && v.Parent() != types.Universe
}

// callSignature resolves the signature of a (non-conversion,
// non-builtin) call.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}
