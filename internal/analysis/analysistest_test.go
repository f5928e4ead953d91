package analysis

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testLoader serves the whole-repo suite run and every golden run in a
// process: it checks each module package once, so a golden package's
// imports are already checked when it loads.
var testLoader = sync.OnceValue(NewLoader)

// wantRe matches `// want "..." `...“ expectation comments in golden
// packages, analysistest-style: each quoted string is a regexp that
// must match exactly one diagnostic reported on that line.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// runGolden loads the golden packages in dirs (go list patterns below
// this package) as one program and checks the analyzer's diagnostics
// against their `// want "regexp"` comments: every expectation must be
// matched by a diagnostic on its line, every unsuppressed diagnostic
// must be expected, and //lint:allow-suppressed findings must NOT
// surface (which is how the golden packages prove that deleting an
// allow annotation flips the suite to failing).
func runGolden(t *testing.T, a *Analyzer, dirs ...string) {
	t.Helper()
	pkgs, err := testLoader().LoadPatterns(".", dirs...)
	if err != nil {
		t.Fatalf("loading golden packages %v: %v", dirs, err)
	}
	// Golden packages opt in unconditionally: the driver-level package
	// filter (Match) is scoping policy, not analyzer semantics.
	unscoped := *a
	unscoped.Match = nil
	diags, err := RunAnalyzers(pkgs, []*Analyzer{&unscoped})
	if err != nil {
		t.Fatalf("running %s on %v: %v", a.Name, dirs, err)
	}

	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, pat := range splitWantPatterns(m[1]) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected %s diagnostic: %s", d.File, d.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// splitWantPatterns parses the space-separated quoted/backquoted
// regexps after `// want`.
func splitWantPatterns(s string) []string {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"', '`':
			prefix, err := strconv.QuotedPrefix(s)
			if err != nil {
				return append(pats, fmt.Sprintf("\x00unparseable want: %s", s))
			}
			unq, _ := strconv.Unquote(prefix)
			pats = append(pats, unq)
			s = strings.TrimSpace(s[len(prefix):])
		default:
			return append(pats, fmt.Sprintf("\x00unparseable want: %s", s))
		}
	}
	return pats
}

// countMarker returns how many indexed comments contain the given
// marker — used by tests asserting the repo actually carries
// annotations (so a sweeping deletion cannot silently disable checks).
func (ci *CommentIndex) countMarker(marker string) int {
	n := 0
	for _, lines := range ci.byFile {
		for _, texts := range lines {
			for _, text := range texts {
				if strings.Contains(text, marker) {
					n++
				}
			}
		}
	}
	return n
}
