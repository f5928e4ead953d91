package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// enginePackages are the import paths (and their subpackages) whose
// code must be bit-identically reproducible: everything that executes
// between a seed and an experiment's output hash. cmd/* and the
// offline tooling (dataset generation, trace export) may use wall
// clocks and global randomness freely.
var enginePackages = []string{
	"multinet/internal/simnet",
	"multinet/internal/netem",
	"multinet/internal/tcp",
	"multinet/internal/mptcp",
	"multinet/internal/core",
	"multinet/internal/phy",
	"multinet/internal/oracle",
	"multinet/internal/experiments",
	"multinet/internal/replay",
	// Fault schedules compile onto simulator timers and draw nothing
	// (a loss burst draws from the link's own stream); the invariant
	// checker reads quiescent state.
	// Both sit squarely between seed and golden hash.
	"multinet/internal/faults",
	// The selector package (policy + sharded estimate store) takes time
	// as explicit caller-supplied instants, so it holds the same
	// no-wall-clock contract as the engine; internal/serve, which owns
	// the service's real clock, stays outside.
	"multinet/internal/selector",
	// The energy meter takes time as caller-supplied packet and reading
	// instants, and sits between seed and golden hash for figure16,
	// energy-backup and ablation-tail.
	"multinet/internal/energy",
}

// IsEnginePackage reports whether path is inside the deterministic
// simulation engine.
func IsEnginePackage(path string) bool {
	for _, p := range enginePackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// randAllowed are the package-level math/rand functions that do not
// touch the global source: explicitly seeded generator constructors.
var randAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Determinism enforces PR 1's bit-identical-sweep guarantee: no wall
// clocks, no global randomness, no goroutines outside the engine
// worker pool, and no output-feeding iteration over unordered maps
// inside the simulation engine.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall clocks (time.Now/Since/Until), global math/rand, " +
		"go statements, and order-sensitive map iteration in engine packages",
	Match: IsEnginePackage,
	Run:   runDeterminism,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				checkDeterministicIdent(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in engine code: all concurrency must go through the engine.Sweep worker pool (or carry a //lint:allow determinism annotation)")
			}
			return true
		})
		// Range-over-map detection needs each loop's trailing sibling
		// statements (to accept the collect-then-sort idiom), so it
		// walks statement lists rather than bare nodes. Function
		// literals are separate roots: a closure running inside the
		// engine is engine code too.
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body != nil {
				walkStmtLists(body.List, func(list []ast.Stmt, i int) {
					if rs, ok := list[i].(*ast.RangeStmt); ok {
						checkMapRange(pass, rs, list[i+1:])
					}
				})
			}
			return true
		})
	}
	return nil
}

// checkDeterministicIdent flags references (not just calls — storing
// time.Now in a func value is just as non-deterministic) to wall-clock
// and global-randomness functions.
func checkDeterministicIdent(pass *Pass, id *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch funcPkgPath(fn) {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(id.Pos(), "wall clock time.%s in engine code: use the simulated clock (simnet.Sim.Now)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if isMethod || randAllowed[fn.Name()] {
			return // seeded *rand.Rand methods and constructors are deterministic
		}
		pass.Reportf(id.Pos(), "global math/rand %s in engine code: draw from a seeded source (simnet.Sim.RNG)", fn.Name())
	}
}

// walkStmtLists calls visit(list, i) for every statement position in
// every statement list syntactically nested under stmts. It does not
// descend into function literals — those are separate walk roots.
func walkStmtLists(stmts []ast.Stmt, visit func(list []ast.Stmt, i int)) {
	for i := range stmts {
		visit(stmts, i)
	}
	for _, s := range stmts {
		walkStmtBodies(s, visit)
	}
}

// walkStmtBodies recurses into the statement lists owned by s.
func walkStmtBodies(s ast.Stmt, visit func(list []ast.Stmt, i int)) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		walkStmtLists(s.List, visit)
	case *ast.IfStmt:
		walkStmtLists(s.Body.List, visit)
		if s.Else != nil {
			walkStmtBodies(s.Else, visit)
		}
	case *ast.ForStmt:
		walkStmtLists(s.Body.List, visit)
	case *ast.RangeStmt:
		walkStmtLists(s.Body.List, visit)
	case *ast.SwitchStmt:
		walkClauseBodies(s.Body, visit)
	case *ast.TypeSwitchStmt:
		walkClauseBodies(s.Body, visit)
	case *ast.SelectStmt:
		walkClauseBodies(s.Body, visit)
	case *ast.LabeledStmt:
		walkStmtBodies(s.Stmt, visit)
	}
}

func walkClauseBodies(body *ast.BlockStmt, visit func(list []ast.Stmt, i int)) {
	if body == nil {
		return
	}
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			walkStmtLists(c.Body, visit)
		case *ast.CommClause:
			walkStmtLists(c.Body, visit)
		}
	}
}

// checkMapRange flags `range` over a map unless the loop body is
// order-insensitive: commutative integer/boolean accumulation, per-key
// writes to the ranged map itself, or key collection into a slice that
// a following sibling statement sorts.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, following []ast.Stmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ins := &mapRangeChecker{
		pass:      pass,
		mapObj:    exprObject(pass.TypesInfo, rs.X),
		keyObj:    exprObject(pass.TypesInfo, rs.Key),
		following: following,
	}
	if ins.blockOK(rs.Body) {
		return
	}
	pass.Reportf(rs.Pos(), "iteration over map %s has an order-sensitive body: map range order is random — sort the keys first, make the body commutative, or annotate //lint:allow determinism with why order cannot leak", exprText(rs.X))
}

// mapRangeChecker decides whether a map-range body is order-
// insensitive.
type mapRangeChecker struct {
	pass      *Pass
	mapObj    types.Object // object of the ranged map when it is a plain identifier
	keyObj    types.Object // object of the loop's key variable
	following []ast.Stmt   // siblings after the range loop, for the sort-after idiom
}

func (mc *mapRangeChecker) blockOK(blk *ast.BlockStmt) bool {
	for _, s := range blk.List {
		if !mc.stmtOK(s) {
			return false
		}
	}
	return true
}

func (mc *mapRangeChecker) stmtOK(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return mc.integerTyped(s.X)
	case *ast.AssignStmt:
		return mc.assignOK(s)
	case *ast.ExprStmt:
		return mc.deleteFromRangedMap(s.X)
	case *ast.IfStmt:
		if s.Init != nil || !mc.pureCond(s.Cond) {
			return false
		}
		if !mc.blockOK(s.Body) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return mc.blockOK(e)
		case *ast.IfStmt:
			return mc.stmtOK(e)
		}
		return false
	case *ast.BlockStmt:
		return mc.blockOK(s)
	case *ast.BranchStmt:
		// continue skips one key; break makes the processed subset
		// depend on iteration order.
		return s.Tok == token.CONTINUE
	case *ast.EmptyStmt:
		return true
	}
	return false
}

// assignOK accepts commutative accumulation (+=, -=, |=, &=, ^= on
// integers, ||/&&-style flag setting via |= on bools is covered by the
// integer check's boolean sibling), per-key stores into the ranged map,
// and slice collection that is sorted afterwards.
func (mc *mapRangeChecker) assignOK(s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) > 1 {
		return false
	}
	lhs := s.Lhs[0]
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.AND_NOT_ASSIGN:
		// Per-key accumulation into any map indexed by the loop key is
		// order-insensitive regardless of element type: each key's
		// entry receives exactly one update per pass, so even float
		// rounding cannot observe iteration order.
		if ix, ok := lhs.(*ast.IndexExpr); ok && mc.isLoopKey(ix.Index) {
			return mc.pureCond(s.Rhs[0])
		}
		return mc.integerTyped(lhs) && mc.pureCond(s.Rhs[0])
	case token.ASSIGN:
		// m[k] = v on the ranged map: each key is visited exactly once,
		// so store order cannot matter.
		if ix, ok := lhs.(*ast.IndexExpr); ok && mc.isRangedMap(ix.X) {
			return mc.pureCond(s.Rhs[0])
		}
		// m2[k] = v — a per-key projection into another map, indexed by
		// the loop key itself: each key writes a distinct entry exactly
		// once, so iteration order cannot leak.
		if ix, ok := lhs.(*ast.IndexExpr); ok && mc.isLoopKey(ix.Index) {
			return mc.pureCond(s.Rhs[0])
		}
		// xs = append(xs, ...) collected for a later sort.
		if id, ok := lhs.(*ast.Ident); ok {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isBuiltin(mc.pass.TypesInfo, call.Fun, "append") {
				if base, ok := call.Args[0].(*ast.Ident); ok && base.Name == id.Name {
					return mc.sortedAfter(id)
				}
			}
		}
	}
	return false
}

// sortedAfter reports whether a sibling statement after the loop sorts
// the collected slice (sort.* or slices.Sort* with the slice as an
// argument).
func (mc *mapRangeChecker) sortedAfter(slice *ast.Ident) bool {
	obj := mc.pass.TypesInfo.ObjectOf(slice)
	if obj == nil {
		return false
	}
	for _, s := range mc.following {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := typesFunc(mc.pass.TypesInfo, call.Fun)
		if pkg := funcPkgPath(fn); pkg != "sort" && pkg != "slices" {
			continue
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && mc.pass.TypesInfo.ObjectOf(id) == obj {
				return true
			}
		}
	}
	return false
}

// isLoopKey reports whether e is exactly the loop's key variable.
func (mc *mapRangeChecker) isLoopKey(e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && mc.keyObj != nil {
		return mc.pass.TypesInfo.ObjectOf(id) == mc.keyObj
	}
	return false
}

func (mc *mapRangeChecker) isRangedMap(e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && mc.mapObj != nil {
		return mc.pass.TypesInfo.ObjectOf(id) == mc.mapObj
	}
	return false
}

// deleteFromRangedMap accepts delete(m, k) on the ranged map (the one
// mutation the spec explicitly permits during iteration).
func (mc *mapRangeChecker) deleteFromRangedMap(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || !isBuiltin(mc.pass.TypesInfo, call.Fun, "delete") || len(call.Args) != 2 {
		return false
	}
	return mc.isRangedMap(call.Args[0])
}

// pureCond accepts expressions free of calls (len/cap and type
// conversions excepted): a call in a condition or operand could carry
// order-dependent side effects into the loop.
func (mc *mapRangeChecker) pureCond(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltin(mc.pass.TypesInfo, call.Fun, "len") || isBuiltin(mc.pass.TypesInfo, call.Fun, "cap") {
			return true
		}
		if tv, ok := mc.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return true // type conversion, not a call
		}
		pure = false
		return false
	})
	return pure
}

// integerTyped accepts integer and boolean lvalues: + - | & ^ on
// integers and flag-style boolean accumulation are commutative, while
// float accumulation is order-sensitive (rounding).
func (mc *mapRangeChecker) integerTyped(e ast.Expr) bool {
	tv, ok := mc.pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// exprObject resolves a plain-identifier expression to its object.
func exprObject(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

// exprText renders a short source form of e for messages.
func exprText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	}
	return "expression"
}

// isBuiltin reports whether fun refers to the named universe builtin.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := info.ObjectOf(id)
	_, isB := obj.(*types.Builtin)
	return isB
}
