package analysis

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The prose documents whose citations TestDocReferencesResolve checks,
// relative to the repository root.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "benchmark/README.md"}

var (
	backtickRe = regexp.MustCompile("`([^`\n]+)`")
	// goRefRe is a Go reference: pkg.Name, pkg.Type.Member or
	// (*pkg.Type).Method, optionally called with no arguments.
	goRefRe   = regexp.MustCompile(`^\(?\*?([a-z][a-z0-9]*)\.([A-Za-z_]\w*)\)?(?:\.([A-Za-z_]\w*))?(?:\(\))?$`)
	fileRefRe = regexp.MustCompile(`([\w./-]*\w\.go):(\d+)(?:[–-](\d+))?`)
	runFlagRe = regexp.MustCompile(`-(?:run|fuzz)\s+(?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	// designCiteRe is a DESIGN.md section cited by its quoted heading,
	// seeRe a cross-reference inside DESIGN.md, and wrapRe a line break
	// with the indent or comment marker that continues the sentence.
	designCiteRe = regexp.MustCompile(`DESIGN\.md,?\s+\(?"([A-Z][^"]*)"`)
	seeRe        = regexp.MustCompile(`\b[Ss]ee "([^"]+)"`)
	wrapRe       = regexp.MustCompile(`\s*\n\s*(?://\s*)?`)
	goneRe       = regexp.MustCompile(`\(gone in PR (\d+)\)`)
)

// goneMarker, right after a citation, marks a name the code no longer
// has: the citation is history, and it is not checked.
const goneMarker = "(gone in PR"

// TestDocReferencesResolve checks what the prose docs cite against the
// code: every backticked Go reference resolves in the module's packages
// or a standard-library package they import, unless it is the name of a
// benchmark metric, and every file.go:line names a line that exists.
// Every DESIGN.md section cited by its quoted heading, from the docs,
// the verify skill or a Go comment, is a heading DESIGN.md has, and
// every "(gone in PR N)" names a PR that CHANGES.md has an entry for. It
// also checks the CI workflows: every name in a -run or -fuzz list
// matches a Test or Fuzz function, since a stale name makes go test run
// nothing and pass.
func TestDocReferencesResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	const root = "../.."
	pkgs, err := testLoader().LoadPatterns(root, "./...")
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	byName := map[string][]*types.Package{}
	seen := map[*types.Package]bool{}
	add := func(p *types.Package) {
		if !seen[p] {
			seen[p] = true
			byName[p.Name()] = append(byName[p.Name()], p)
		}
	}
	for _, pkg := range pkgs {
		add(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			add(imp)
		}
	}

	// A benchmark metric (`tcp.segments`) reads like a Go reference; the
	// metrics BENCHMARK.json declares are not looked up as one.
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	src, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(src, &bench)
	}
	if err != nil {
		t.Fatalf("reading the benchmark's metrics: %v", err)
	}
	metrics := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics[m.Name] = true
	}

	lines := map[string]int{}    // every .go file by slash path from the root, and its line count
	var tests []string           // every Test and Fuzz function
	cites := map[string]string{} // the text of every file that may cite a DESIGN.md section, by path
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			if err == nil {
				err = filepath.SkipDir
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		lines[filepath.ToSlash(rel)] = strings.Count(string(src), "\n")
		cites[filepath.ToSlash(rel)] = string(src)
		if strings.HasSuffix(path, "_test.go") {
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
					(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
					tests = append(tests, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking the repository: %v", err)
	}

	for _, doc := range citingDocs {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(src), "\n") {
			where := doc + ":" + strconv.Itoa(n+1)
			for _, m := range backtickRe.FindAllStringSubmatchIndex(line, -1) {
				ref := line[m[2]:m[3]]
				if strings.HasPrefix(strings.TrimSpace(line[m[1]:]), goneMarker) {
					continue
				}
				if g := goRefRe.FindStringSubmatch(ref); g != nil && byName[g[1]] != nil && !metrics[ref] && !resolves(byName[g[1]], g[2], g[3]) {
					t.Errorf("%s: `%s` names nothing in package %s, nor a benchmark metric", where, ref, g[1])
				}
			}
			for _, m := range fileRefRe.FindAllStringSubmatchIndex(line, -1) {
				if strings.HasPrefix(strings.TrimLeft(line[m[1]:], "`) "), goneMarker) {
					continue
				}
				file := line[m[2]:m[3]]
				last, _ := strconv.Atoi(line[m[4]:m[5]])
				if m[6] >= 0 {
					last, _ = strconv.Atoi(line[m[6]:m[7]])
				}
				if !lineExists(lines, file, last) {
					t.Errorf("%s: %s names no existing line", where, line[m[0]:m[1]])
				}
			}
		}
	}

	// The walk above skips dot-directories, so the verify skill is read
	// by name.
	for _, doc := range append(citingDocs, ".claude/skills/verify/SKILL.md") {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		cites[doc] = string(src)
	}
	checkSectionCites(t, cites)
	changes, err := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	checkGoneMarkers(t, cites, string(changes))

	workflows, _ := filepath.Glob(filepath.Join(root, ".github/workflows/*.yml"))
	if len(workflows) == 0 {
		t.Fatal("no CI workflow found")
	}
	for _, wf := range workflows {
		src, err := os.ReadFile(wf)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			for _, m := range runFlagRe.FindAllStringSubmatch(line, -1) {
				checkRunList(t, filepath.Base(wf), m[1]+m[2]+m[3], tests)
			}
		}
	}
}

// checkSectionCites reports each DESIGN.md section that one of docs
// (file text by path) cites by a heading DESIGN.md does not have. A
// citation may stop before the heading's parenthesis: "Enforced
// invariants" cites "Enforced invariants (multinetlint)". A quote may
// wrap across lines, in prose or in a Go comment.
func checkSectionCites(t *testing.T, docs map[string]string) {
	t.Helper()
	var headings []string
	for _, line := range strings.Split(docs["DESIGN.md"], "\n") {
		if strings.HasPrefix(line, "#") {
			headings = append(headings, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	for path, text := range docs {
		text = wrapRe.ReplaceAllString(text, " ")
		quoted := designCiteRe.FindAllStringSubmatch(text, -1)
		if path == "DESIGN.md" {
			quoted = append(quoted, seeRe.FindAllStringSubmatch(text, -1)...)
		}
		for _, q := range quoted {
			if !hasHeading(headings, q[1]) {
				t.Errorf("%s: %s cites no DESIGN.md heading", path, q[0])
			}
		}
	}
}

// hasHeading reports whether cite is one of headings, or one of them up
// to its parenthesis.
func hasHeading(headings []string, cite string) bool {
	for _, h := range headings {
		if h == cite || strings.HasPrefix(h, cite+" (") {
			return true
		}
	}
	return false
}

// checkGoneMarkers reports each "(gone in PR N)" in docs whose PR has no
// "- PR N:" entry in changes, the text of CHANGES.md.
func checkGoneMarkers(t *testing.T, docs map[string]string, changes string) {
	t.Helper()
	for path, text := range docs {
		for _, m := range goneRe.FindAllStringSubmatch(text, -1) {
			if !strings.Contains(changes, "\n- PR "+m[1]+":") {
				t.Errorf("%s: %s names a PR with no entry in CHANGES.md", path, m[0])
			}
		}
	}
}

// checkRunList reports each name of a -run or -fuzz list that matches
// no Test or Fuzz function.
func checkRunList(t *testing.T, workflow, list string, tests []string) {
	t.Helper()
	for _, name := range strings.Split(list, "|") {
		name, _, _ = strings.Cut(strings.Trim(name, "^$"), "/")
		if name == "" {
			continue
		}
		re, err := regexp.Compile(name)
		if err != nil {
			t.Errorf("%s: -run name %q: %v", workflow, name, err)
			continue
		}
		if !matchesAny(re, tests) {
			t.Errorf("%s: -run name %q matches no Test or Fuzz function", workflow, name)
		}
	}
}

// resolves reports whether one of pkgs declares name and, when member
// is set, whether name is a type with that field or method.
func resolves(pkgs []*types.Package, name, member string) bool {
	for _, p := range pkgs {
		obj := p.Scope().Lookup(name)
		if obj == nil {
			continue
		}
		if member == "" {
			return true
		}
		if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p, member); m != nil {
			return true
		}
	}
	return false
}

// lineExists reports whether a .go file whose path ends in file has at
// least line lines.
func lineExists(lines map[string]int, file string, line int) bool {
	for path, n := range lines {
		if (path == file || strings.HasSuffix(path, "/"+file)) && line <= n {
			return true
		}
	}
	return false
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
