package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// pooledType names one recycled type by defining package and type
// name. Values of these types have single-owner lifecycles: exactly one
// release per acquisition, no touching after release, and any pointer
// stored into longer-lived structure is an ownership transfer that must
// be marked //multinet:owns.
type pooledType struct{ path, name string }

var pooledTypes = []pooledType{
	{"multinet/internal/netem", "Packet"},
	{"multinet/internal/tcp", "Segment"},
	{"multinet/internal/simnet", "event"},
}

// worldHandles are the connection handles a simulator carves from its
// slab one at a time (simnet.Slab.New), and the flow records that own
// them. Unlike carved slices they do reach callers — Dial returns one —
// so they may be stored and returned freely; but like everything on the slab they are dead at the Sim's
// Release, when they read as zero until the next world carves them.
var worldHandles = []pooledType{
	{"multinet/internal/tcp", "Conn"},
	{"multinet/internal/mptcp", "Conn"},
	{"multinet/internal/mptcp", "Subflow"},
	{"multinet/internal/core", "Flows"},
	{"multinet/internal/core", "Flow"},
}

var simType = []pooledType{{"multinet/internal/simnet", "Sim"}}

// worldType is the one value a handle's constructor may be given in
// place of its Sim: core.NewFlows takes the World.
var worldType = pooledType{"multinet/internal/core", "World"}

// releaseFunc describes a call that releases one of its arguments (or
// its receiver) to a free list: a package-level function (recvType ==
// "") or a method. A simulator is released like anything else it owns:
// after Sim.Release (or World.Close, which calls it — also as the Close
// a core.Session promotes) its memory is the next world's, and touching
// the variable again is a use after release.
type releaseFunc struct {
	path     string // defining package import path
	recvType string // receiver type name for methods
	name     string
	arg      int // index of the released argument; -1 means the receiver
}

var releaseFuncs = []releaseFunc{
	{path: "multinet/internal/netem", name: "ReleasePacket", arg: 0},
	{path: "multinet/internal/netem", name: "dropPacket", arg: 0},
	{path: "multinet/internal/tcp", recvType: "Segment", name: "Recycle", arg: -1},
	{path: "multinet/internal/simnet", recvType: "arena", name: "recycle", arg: 0},
	{path: "multinet/internal/simnet", recvType: "FreeList", name: "Put", arg: 0},
	{path: "multinet/internal/simnet", recvType: "Sim", name: "Release", arg: -1},
	{path: "multinet/internal/core", recvType: "World", name: "Close", arg: -1},
}

// PoolOwn enforces PR 4's single-owner recycling discipline on recycled
// packets, segments and simulator events, and on the simulators whose
// free lists they live in: no double release, no use
// after release along straight-line/branch paths, and no recycled
// pointer escaping into a struct field or slice without an explicit
// //multinet:owns ownership-transfer marker.
//
// A slice carved from a simulator's slab (simnet.Slab.Make and Grow) is
// the world's memory on loan: Release rewinds the slab and the next
// world carves the same bytes. Such a slice must stay where only the
// world can reach it — storing it in an exported field or returning it
// from an exported function is an error — and touching it after its
// Sim's Release (or its World's Close) is a use after release. So is
// touching a connection handle (tcp.Conn, mptcp.Conn, mptcp.Subflow) of
// that world: handles are carved from the same slab.
var PoolOwn = &Analyzer{
	Name: "poolown",
	Doc: "detect double-release, use-after-release, and unmarked escapes " +
		"of recycled values (netem.Packet, tcp.Segment, simnet events), " +
		"use of a simnet.Sim or core.World (or the Session embedding one) after Release/Close, slab slices " +
		"(simnet.Slab.Make/Grow) that leave the world or outlive it, and connection " +
		"handles (tcp.Conn, mptcp.Conn, mptcp.Subflow, core.Flows, core.Flow) used after their world's release",
	Run: runPoolOwn,
}

func runPoolOwn(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkOwnership(pass, n.Body, n.Name.IsExported() && !isSlabMethod(pass, n))
				}
				return true
			case *ast.AssignStmt:
				checkEscapeAssign(pass, n)
			case *ast.CallExpr:
				checkEscapeAppend(pass, n)
			}
			return true
		})
	}
	return nil
}

// ---- release-site resolution ----------------------------------------

// releaseTarget returns the expression whose value call releases, or
// nil when call is not a pool release.
func releaseTarget(info *types.Info, call *ast.CallExpr) ast.Expr {
	fn := typesFunc(info, call.Fun)
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	for _, rf := range releaseFuncs {
		if fn.Name() != rf.name {
			continue
		}
		if rf.recvType == "" {
			// Package-level function.
			if sig != nil && sig.Recv() == nil && funcPkgPath(fn) == rf.path && rf.arg < len(call.Args) {
				return call.Args[rf.arg]
			}
			continue
		}
		// Method.
		if sig == nil || sig.Recv() == nil ||
			funcPkgPath(fn) != rf.path || namedTypeName(sig.Recv().Type()) != rf.recvType {
			continue
		}
		if rf.arg == -1 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		if rf.arg < len(call.Args) {
			return call.Args[rf.arg]
		}
	}
	return nil
}

// isNamed reports whether t is the named type pt itself.
func isNamed(t types.Type, pt pooledType) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Name() == pt.name && n.Obj().Pkg().Path() == pt.path
}

// namedTypeName unwraps pointers and returns the named type's name.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isPooledPointer reports whether t is a pointer to one of the pooled
// types.
func isPooledPointer(t types.Type) bool { return pointsToOneOf(t, pooledTypes) }

// pointsToOneOf reports whether t is a pointer to one of the listed
// named types.
func pointsToOneOf(t types.Type, list []pooledType) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	for _, pt := range list {
		if n.Obj().Name() == pt.name && n.Obj().Pkg().Path() == pt.path {
			return true
		}
	}
	return false
}

// ---- double-release / use-after-release -----------------------------

// released is the ownership state at one point of a function body.
type released struct {
	// dead maps a variable to the position of the release that killed it.
	dead map[*types.Var]token.Pos
	// slab holds the variables that are a simnet.Slab or a slice carved
	// from one, each with the variable naming the world it belongs to
	// (nil when that cannot be told, as for a slab kept in a field).
	slab map[*types.Var]*types.Var
	// handle holds the variables that are a connection handle (see
	// worldHandles) of a world this function can name, each with the
	// variable naming that world.
	handle map[*types.Var]*types.Var
	// exported: the body being walked is an exported function's.
	exported bool
}

func (r released) clone() released {
	return released{maps.Clone(r.dead), maps.Clone(r.slab), maps.Clone(r.handle), r.exported}
}

// checkOwnership walks one function body tracking release state along
// straight-line code, forking (without re-joining) at branches — a
// deliberately conservative path model: anything it reports is a real
// sequence of statements that releases twice or touches a dead value.
func checkOwnership(pass *Pass, body *ast.BlockStmt, exported bool) {
	walkOwnBlock(pass, body.List, released{map[*types.Var]token.Pos{}, map[*types.Var]*types.Var{}, map[*types.Var]*types.Var{}, exported})
}

func walkOwnBlock(pass *Pass, stmts []ast.Stmt, st released) {
	for _, s := range stmts {
		walkOwnStmt(pass, s, st)
	}
}

func walkOwnStmt(pass *Pass, s ast.Stmt, st released) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		walkOwnBlock(pass, s.List, st)
		return
	case *ast.IfStmt:
		if s.Init != nil {
			applyOwnStmt(pass, s.Init, st)
		}
		checkUses(pass, s.Cond, st, nil)
		walkOwnBlock(pass, s.Body.List, st.clone())
		if s.Else != nil {
			walkOwnStmt(pass, s.Else, st.clone())
		}
		return
	case *ast.ForStmt:
		walkOwnBlock(pass, s.Body.List, st.clone())
		return
	case *ast.RangeStmt:
		checkUses(pass, s.X, st, nil)
		walkOwnBlock(pass, s.Body.List, st.clone())
		return
	case *ast.SwitchStmt:
		ownClauses(pass, s.Body, st)
		return
	case *ast.TypeSwitchStmt:
		ownClauses(pass, s.Body, st)
		return
	case *ast.SelectStmt:
		ownClauses(pass, s.Body, st)
		return
	case *ast.LabeledStmt:
		walkOwnStmt(pass, s.Stmt, st)
		return
	case *ast.DeferStmt:
		// A deferred release happens at function exit, after every
		// remaining statement: it neither kills the value for the code
		// below nor counts as a straight-line double release here.
		return
	}
	applyOwnStmt(pass, s, st)
}

func ownClauses(pass *Pass, body *ast.BlockStmt, st released) {
	if body == nil {
		return
	}
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			walkOwnBlock(pass, c.Body, st.clone())
		case *ast.CommClause:
			walkOwnBlock(pass, c.Body, st.clone())
		}
	}
}

// applyOwnStmt processes one simple (non-branching) statement: report
// uses of dead values, then apply this statement's releases and
// reassignments to the state.
func applyOwnStmt(pass *Pass, s ast.Stmt, st released) {
	// Releases performed by this statement, and the idents naming the
	// released value inside the release call itself (excluded from the
	// use check — ReleasePacket(p) is not a use-after-release of p).
	type rel struct {
		v   *types.Var
		pos token.Pos
	}
	var rels []rel
	excluded := map[*ast.Ident]bool{}
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies run later; analyzed as their own scope elsewhere
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		target := releaseTarget(pass.TypesInfo, call)
		if target == nil {
			return true
		}
		if id, ok := ast.Unparen(target).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
				rels = append(rels, rel{v, call.Pos()})
				excluded[id] = true
			}
		}
		return true
	})

	// Reassignment resurrects a variable for the code below.
	var reassigned []*types.Var
	if as, ok := s.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
					reassigned = append(reassigned, v)
					excluded[id] = true
				}
			}
		}
	}

	checkUses(pass, s, st, excluded)
	checkSlabEscape(pass, s, st)

	for _, r := range rels {
		if prev, dead := st.dead[r.v]; dead {
			pass.Reportf(r.pos, "%s released twice: already released at %s", r.v.Name(), pass.Fset.Position(prev))
		} else {
			st.dead[r.v] = r.pos
		}
	}
	for _, v := range reassigned {
		delete(st.dead, v)
	}
}

// checkSlabEscape applies the slab rules to one simple statement: it
// reports a carved slice stored in an exported field or returned from an
// exported function, and records which variables the statement makes (or
// stops making) carved slices.
func checkSlabEscape(pass *Pass, s ast.Stmt, st released) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if _, carved := slabOwner(pass.TypesInfo, res, st); carved && st.exported {
				pass.Reportf(res.Pos(), "slab slice %s returned from an exported function: the caller could hold it across Release, when the slab hands the same memory to the next world", exprText(res))
			}
		}
	case *ast.AssignStmt:
		if len(s.Lhs) != len(s.Rhs) {
			return
		}
		for i, lhs := range s.Lhs {
			owner, carved := slabOwner(pass.TypesInfo, s.Rhs[i], st)
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				if v, ok := pass.TypesInfo.ObjectOf(l).(*types.Var); ok {
					if carved {
						st.slab[v] = owner
					} else {
						delete(st.slab, v)
					}
					if world := handleOwner(pass.TypesInfo, s.Rhs[i], st); world != nil {
						st.handle[v] = world
					} else {
						delete(st.handle, v)
					}
				}
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[l]; carved && ok && sel.Kind() == types.FieldVal && l.Sel.IsExported() {
					pass.Reportf(s.Pos(), "slab slice stored in exported field %s: it must stay where only its world can reach it", exprText(l))
				}
			}
		}
	}
}

// slabOwner reports whether e is a simnet.Slab or a slice carved from
// one — a Make or Grow call, a re-slice or append of one, or a variable
// holding one — and, when it can tell, the variable naming the Sim (or
// the World or Session) the slab belongs to.
func slabOwner(info *types.Info, e ast.Expr, st released) (owner *types.Var, carved bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(e).(*types.Var); ok {
			owner, carved = st.slab[v]
		}
	case *ast.SliceExpr:
		return slabOwner(info, e.X, st)
	case *ast.CallExpr:
		if isBuiltin(info, e.Fun, "append") && len(e.Args) > 0 {
			return slabOwner(info, e.Args[0], st)
		}
		fun := ast.Unparen(e.Fun)
		if ix, ok := fun.(*ast.IndexExpr); ok { // SlabOf[T]
			fun = ix.X
		}
		fn := typesFunc(info, fun)
		if funcPkgPath(fn) != "multinet/internal/simnet" {
			return nil, false
		}
		sig := fn.Type().(*types.Signature)
		switch {
		case sig.Recv() == nil && fn.Name() == "SlabOf" && len(e.Args) == 1:
			v, _ := rootObject(info, leftmost(e.Args[0])).(*types.Var)
			return v, true
		case sig.Recv() != nil && namedTypeName(sig.Recv().Type()) == "Slab" && (fn.Name() == "Make" || fn.Name() == "Grow"):
			owner, _ = slabOwner(info, fun.(*ast.SelectorExpr).X, st)
			return owner, true
		}
	}
	return owner, carved
}

// handleOwner returns the variable naming the world that e, a connection
// handle, belongs to: the Sim (or the World or Session holding it) a constructor
// call was given, or the world of the handle e was read from — a
// subflow of a connection, the tcp.Conn of a subflow. It is nil when e
// is not a handle or its world cannot be told, as for a Dial on a Stack.
func handleOwner(info *types.Info, e ast.Expr, st released) *types.Var {
	if tv, ok := info.Types[e]; !ok || !pointsToOneOf(tv.Type, worldHandles) {
		return nil
	}
	if v, ok := rootObject(info, leftmost(e)).(*types.Var); ok && st.handle[v] != nil {
		return st.handle[v]
	}
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		for _, arg := range call.Args {
			if t := info.TypeOf(arg); !pointsToOneOf(t, simType) && !isNamed(t, worldType) {
				continue
			}
			if v, ok := rootObject(info, leftmost(arg)).(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}

// isSlabMethod reports whether fn is a method of simnet.Slab itself: the
// one place whose business it is to hand carved slices out.
func isSlabMethod(pass *Pass, fn *ast.FuncDecl) bool {
	obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if obj == nil || funcPkgPath(obj) != "multinet/internal/simnet" {
		return false
	}
	recv := obj.Type().(*types.Signature).Recv()
	return recv != nil && namedTypeName(recv.Type()) == "Slab"
}

// leftmost strips selectors, indexing and method calls down to the
// expression's first identifier: s for s.Sim, c for c.conns[i].sim and
// for c.Subflows()[0].
func leftmost(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return e
			}
			e = sel.X
		default:
			return e
		}
	}
}

// checkUses reports identifiers referring to released variables inside
// n, skipping the excluded idents and closure bodies.
func checkUses(pass *Pass, n ast.Node, st released, excluded map[*ast.Ident]bool) {
	if n == nil || len(st.dead) == 0 {
		return
	}
	onLoan := func(v *types.Var) *types.Var {
		if owner := st.slab[v]; owner != nil {
			return owner
		}
		return st.handle[v]
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || excluded[id] {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if pos, dead := st.dead[v]; dead {
			pass.Reportf(id.Pos(), "use of %s after release at %s: the pool may have handed it to another owner", id.Name, pass.Fset.Position(pos))
		} else if owner := onLoan(v); owner != nil {
			if pos, dead := st.dead[owner]; dead {
				pass.Reportf(id.Pos(), "use of %s after release of %s at %s: the slab it was carved from belongs to the next world", id.Name, owner.Name(), pass.Fset.Position(pos))
			}
		}
		return true
	})
}

// ---- escape tracking ------------------------------------------------

// checkEscapeAssign flags pooled pointers stored into struct fields,
// slice/map elements, or package-level variables without an ownership
// marker.
func checkEscapeAssign(pass *Pass, as *ast.AssignStmt) {
	n := len(as.Lhs)
	if len(as.Rhs) != n {
		return // tuple assignment from a call never yields pooled pointers directly
	}
	for i := 0; i < n; i++ {
		rhsT, ok := pass.TypesInfo.Types[as.Rhs[i]]
		if !ok || !isPooledPointer(rhsT.Type) {
			continue
		}
		lhs := ast.Unparen(as.Lhs[i])
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			if !pass.ownsAllowed(l, as.Pos()) {
				pass.Reportf(as.Pos(), "pooled %s escapes into field %s without a //multinet:owns ownership-transfer marker", typeShort(rhsT.Type), exprText(l))
			}
		case *ast.IndexExpr:
			// A store whose value comes from the same container is a
			// permutation (sort swaps, compaction shifts), not a new
			// ownership edge.
			if sameContainer(pass.TypesInfo, l, as.Rhs[i]) {
				continue
			}
			if !pass.ownsAllowedIndex(l, as.Pos()) {
				pass.Reportf(as.Pos(), "pooled %s escapes into element of %s without a //multinet:owns ownership-transfer marker", typeShort(rhsT.Type), exprText(l.X))
			}
		case *ast.Ident:
			if v, ok := pass.TypesInfo.ObjectOf(l).(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
				if !pass.OwnsMarkedAt(as.Pos()) && !pass.OwnsMarkedAt(v.Pos()) {
					pass.Reportf(as.Pos(), "pooled %s escapes into package-level variable %s without a //multinet:owns ownership-transfer marker", typeShort(rhsT.Type), l.Name)
				}
			}
		}
	}
}

// checkEscapeAppend flags append(xs, p) where p is a pooled pointer.
func checkEscapeAppend(pass *Pass, call *ast.CallExpr) {
	if !isBuiltin(pass.TypesInfo, call.Fun, "append") || len(call.Args) < 2 {
		return
	}
	for _, arg := range call.Args[1:] {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || !isPooledPointer(tv.Type) {
			continue
		}
		if pass.OwnsMarkedAt(call.Pos()) {
			continue
		}
		if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok && pass.ownsAllowed(sel, call.Pos()) {
			continue
		}
		pass.Reportf(call.Pos(), "pooled %s appended to %s without a //multinet:owns ownership-transfer marker", typeShort(tv.Type), exprText(call.Args[0]))
	}
}

// ownsAllowed reports whether storing through sel is covered by a
// marker: on the assignment line itself, or on the declaration of the
// field being assigned (resolved positionally, so markers on fields of
// other loaded packages work too).
func (p *Pass) ownsAllowed(sel *ast.SelectorExpr, sitePos token.Pos) bool {
	if p.OwnsMarkedAt(sitePos) {
		return true
	}
	if s, ok := p.TypesInfo.Selections[sel]; ok {
		return p.OwnsMarkedAt(s.Obj().Pos())
	}
	if obj := p.TypesInfo.ObjectOf(sel.Sel); obj != nil {
		return p.OwnsMarkedAt(obj.Pos())
	}
	return false
}

// ownsAllowedIndex covers xs[i] = p (and nested forms like
// t.rows[r][c] = p): the marker may sit on the line or on
// the declaration of the slice/array/map ultimately being indexed —
// a field or a variable.
func (p *Pass) ownsAllowedIndex(ix *ast.IndexExpr, sitePos token.Pos) bool {
	if p.OwnsMarkedAt(sitePos) {
		return true
	}
	x := ast.Unparen(ix.X)
	for {
		inner, ok := x.(*ast.IndexExpr)
		if !ok {
			break
		}
		x = ast.Unparen(inner.X)
	}
	switch x := x.(type) {
	case *ast.SelectorExpr:
		return p.ownsAllowed(x, sitePos)
	case *ast.Ident:
		if obj := p.TypesInfo.ObjectOf(x); obj != nil {
			return p.OwnsMarkedAt(obj.Pos())
		}
	}
	return false
}

// sameContainer reports whether lhs (an index expression) and rhs name
// the same root object, i.e. the assignment permutes elements of one
// container rather than transferring ownership into it.
func sameContainer(info *types.Info, lhs *ast.IndexExpr, rhs ast.Expr) bool {
	rix, ok := ast.Unparen(rhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	lroot, rroot := rootObject(info, lhs.X), rootObject(info, rix.X)
	return lroot != nil && lroot == rroot
}

// rootObject resolves the leftmost identifier of a selector/index
// chain to its object.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			// Resolve the full selection (s.due) rather than the root
			// (s): two different fields of one struct are different
			// containers.
			return info.ObjectOf(x.Sel)
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// typeShort renders *pkg.Type as pkg.Type for messages.
func typeShort(t types.Type) string {
	p, ok := t.(*types.Pointer)
	if !ok {
		return t.String()
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return t.String()
	}
	if n.Obj().Pkg() != nil {
		return "*" + n.Obj().Pkg().Name() + "." + n.Obj().Name()
	}
	return "*" + n.Obj().Name()
}
