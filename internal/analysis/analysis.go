// Package analysis is a self-contained static-analysis suite that
// encodes the simulator's engineering invariants — deterministic
// execution, single-owner pooling, allocation-free hot paths, and an
// exported surface that non-test code calls — as four vet-style
// analyzers, so violations fail at lint time instead of
// surfacing as golden-hash drift or AllocsPerRun regressions far from
// their cause.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, an analysistest-style golden runner)
// but is built entirely on the standard library: packages are
// enumerated with `go list -deps` and type-checked once each,
// dependencies first, by a Loader that is their importer (only the
// standard library comes through the stdlib source importer), so the
// suite needs no external module. The x/tools unitchecker protocol
// (`go vet -vettool`) is deliberately not implemented —
// `cmd/multinetlint` is the supported standalone driver (see
// DESIGN.md, "Enforced invariants").
//
// # Annotation grammar
//
//   - `//multinet:hotpath` in a function's doc comment opts the
//     function into the hotpath analyzer's zero-alloc checks.
//   - `//multinet:owns` on a struct-field declaration (or on/above an
//     assignment line) marks an ownership transfer: storing a pooled
//     pointer there is a deliberate hand-off, not a leak.
//   - `//lint:allow <analyzer> <reason>` on or immediately above a
//     flagged line suppresses that analyzer's diagnostic; suppressions
//     are counted and reported, never silent.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. Run inspects a single
// type-checked package through its Pass and reports findings; Match,
// when non-nil, restricts which import paths the driver applies the
// analyzer to (the analyzer itself stays unconditional so the
// analysistest golden packages exercise it directly).
type Analyzer struct {
	Name string
	Doc  string
	// Match reports whether the driver should run this analyzer on the
	// package with the given import path. Nil means every package.
	Match func(pkgPath string) bool
	Run   func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Comments indexes every comment line of every file loaded in the
	// whole program (not just this package), so cross-package marker
	// lookups — e.g. a //multinet:owns on a field declared elsewhere —
	// resolve as long as the declaring package was loaded too.
	Comments *CommentIndex

	// Refs holds what every loaded package references, for unusedapi.
	Refs *Refs

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// OwnsMarkedAt reports whether the line holding pos (or the line
// directly above it) carries a //multinet:owns ownership-transfer
// marker.
func (p *Pass) OwnsMarkedAt(pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	position := p.Fset.Position(pos)
	return p.Comments.hasMarker(position.Filename, position.Line, "multinet:owns")
}

// Diagnostic is one finding. Suppressed findings carry the //lint:allow
// reason that silenced them; they still appear in -json output so the
// allowance budget stays visible.
type Diagnostic struct {
	Analyzer   string         `json:"analyzer"`
	Pos        token.Position `json:"-"`
	File       string         `json:"file"`
	Line       int            `json:"line"`
	Col        int            `json:"col"`
	Message    string         `json:"message"`
	Suppressed bool           `json:"suppressed"`
	AllowedBy  string         `json:"allowed_by,omitempty"`
}

// CommentIndex maps file → line → the comment texts whose group starts
// on that line. It backs both //lint:allow suppression and
// //multinet:owns marker lookups.
type CommentIndex struct {
	byFile map[string]map[int][]string
}

// NewCommentIndex builds an empty index.
func NewCommentIndex() *CommentIndex {
	return &CommentIndex{byFile: map[string]map[int][]string{}}
}

// AddFile indexes every comment of f.
func (ci *CommentIndex) AddFile(fset *token.FileSet, f *ast.File) {
	name := fset.Position(f.Package).Filename
	lines := ci.byFile[name]
	if lines == nil {
		lines = map[int][]string{}
		ci.byFile[name] = lines
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := fset.Position(c.Pos()).Line
			lines[line] = append(lines[line], c.Text)
		}
	}
}

// hasMarker reports whether line or line-1 of file carries a comment
// containing marker (after the comment sigil).
func (ci *CommentIndex) hasMarker(file string, line int, marker string) bool {
	lines := ci.byFile[file]
	if lines == nil {
		return false
	}
	for _, l := range []int{line, line - 1} {
		for _, text := range lines[l] {
			if strings.Contains(text, marker) {
				return true
			}
		}
	}
	return false
}

// allowReason returns the //lint:allow reason suppressing analyzer
// findings on the given file:line (checking the line itself and the
// line above), or "" when none applies.
func (ci *CommentIndex) allowReason(file string, line int, analyzer string) (string, bool) {
	lines := ci.byFile[file]
	if lines == nil {
		return "", false
	}
	for _, l := range []int{line, line - 1} {
		for _, text := range lines[l] {
			body := strings.TrimPrefix(strings.TrimPrefix(text, "//"), "/*")
			body = strings.TrimSpace(body)
			if !strings.HasPrefix(body, "lint:allow") {
				continue
			}
			fields := strings.Fields(body)
			if len(fields) >= 2 && fields[1] == analyzer {
				reason := strings.Join(fields[2:], " ")
				if reason == "" {
					reason = "unspecified"
				}
				return reason, true
			}
		}
	}
	return "", false
}

// RunAnalyzers applies every analyzer (subject to its Match filter) to
// every package and returns the findings sorted by position, with
// //lint:allow suppressions resolved and marked.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	comments := NewCommentIndex()
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			comments.AddFile(pkg.Fset, f)
		}
	}
	refs := newRefs(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Comments:  comments,
				Refs:      refs,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for i := range diags {
		d := &diags[i]
		d.File = d.Pos.Filename
		d.Line = d.Pos.Line
		d.Col = d.Pos.Column
		if reason, ok := comments.allowReason(d.File, d.Line, d.Analyzer); ok {
			d.Suppressed = true
			d.AllowedBy = reason
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// DefaultAnalyzers returns the full multinetlint suite.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{Determinism, PoolOwn, HotPath, UnusedAPI}
}

// typesFunc resolves the *types.Func an identifier or selector refers
// to, or nil.
func typesFunc(info *types.Info, expr ast.Expr) *types.Func {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcPkgPath returns the import path of fn's defining package ("" for
// builtins and universe-scope objects).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
