package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// unpairedHarnesses are the functions that give a configuration a
// network draw of its own through engine.Cell.Unpaired, with the
// experiments they seed. Every other comparison between configurations
// runs them on the same cell, so the same network draw. A change to
// this list changes what an experiment compares: make it on purpose.
var unpairedHarnesses = map[string]string{
	"Figure7":             "figure7",
	"Figure8":             "figure8",
	"evolutionPair":       "figure9, figure10",
	"flowSizeSweep":       "figure11, figure12",
	"Coupling":            "coupling",
	"Figure15":            "figure15",
	"Figure16":            "figure16",
	"AblationJoinDelay":   "ablation-join",
	"AblationScheduler":   "ablation-scheduler",
	"runScenarioVariants": "scenario-dual-lte, scenario-dual-wlan, scenario-wifi-2lte and scenario-schedulers (transfer grids)",
	"ScenarioFaults":      "scenario-faults",
}

// TestSeedsComeFromCells walks the package's non-test files and holds
// every seed to the cell that names it: no seed is derived outside
// engine.Cell, no arithmetic is done on a Cell's Seed, and a
// configuration index reaches a seed only through Unpaired, in the
// functions unpairedHarnesses lists.
func TestSeedsComeFromCells(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	unpaired := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn := "package scope"
				if d, ok := decl.(*ast.FuncDecl); ok {
					fn = d.Name.Name
				}
				for _, p := range seedFaults(decl, func() { unpaired[fn] = true }) {
					t.Errorf("%s (in %s): %s", fset.Position(p.pos), fn, p.msg)
				}
			}
		}
	}
	var extra, missing []string
	for fn := range unpaired {
		if _, ok := unpairedHarnesses[fn]; !ok {
			extra = append(extra, fn)
		}
	}
	for fn, exps := range unpairedHarnesses {
		if !unpaired[fn] {
			missing = append(missing, fn+" ("+exps+")")
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	if len(extra) > 0 {
		t.Errorf("Unpaired is called by %s, which unpairedHarnesses does not list: "+
			"run the configurations on one cell, or list the function on purpose", strings.Join(extra, ", "))
	}
	if len(missing) > 0 {
		t.Errorf("unpairedHarnesses lists %s, which no longer calls Unpaired: take it off the list",
			strings.Join(missing, ", "))
	}
}

const seedArithmetic = "arithmetic on a cell's Seed: name the coordinate with engine.Cell.At or Unpaired"

// seedFault is one seed derived outside a cell.
type seedFault struct {
	pos token.Pos
	msg string
}

// seedFaults reports the seeds decl derives outside a cell, and calls
// onUnpaired for each call of Unpaired in it. A name assigned a Seed()
// result counts as a seed for the rest of decl.
func seedFaults(decl ast.Decl, onUnpaired func()) []seedFault {
	seeds := map[string]bool{}
	var isSeed func(e ast.Expr) bool
	isSeed = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return isSeed(e.X)
		case *ast.Ident:
			return seeds[e.Name]
		case *ast.CallExpr:
			switch fun := e.Fun.(type) {
			case *ast.SelectorExpr:
				return fun.Sel.Name == "Seed" && len(e.Args) == 0
			case *ast.Ident: // a conversion, such as uint64(c.Seed())
				return len(e.Args) == 1 && isSeed(e.Args[0])
			}
		}
		return false
	}
	var faults []seedFault
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			name := ""
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			switch name {
			case "SeedFor", "seedFor":
				faults = append(faults, seedFault{n.Pos(), "calls " + name + ": a seed comes from a cell (o.Cell, engine.Cell.At)"})
			case "Unpaired":
				onUnpaired()
			}
		case *ast.BinaryExpr:
			if isArith(n.Op) && (isSeed(n.X) || isSeed(n.Y)) {
				faults = append(faults, seedFault{n.Pos(), seedArithmetic})
			}
		case *ast.IncDecStmt:
			if isSeed(n.X) {
				faults = append(faults, seedFault{n.Pos(), seedArithmetic})
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					if isSeed(lhs) || (i < len(n.Rhs) && isSeed(n.Rhs[i])) {
						faults = append(faults, seedFault{n.Pos(), seedArithmetic})
					}
				} else if id, ok := lhs.(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) && isSeed(n.Rhs[i]) {
					seeds[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) && isSeed(n.Values[i]) {
					seeds[id.Name] = true
				}
			}
		}
		return true
	})
	return faults
}

// isArith reports whether op computes a new number from its operands.
func isArith(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
		return true
	}
	return false
}
