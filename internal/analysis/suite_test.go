package analysis

import (
	"testing"
)

// TestRepositorySuiteClean runs the full multinetlint suite over the
// whole repository, so `go test ./...` enforces the same zero-violation
// bar as the CI lint job: seeding a violation — or deleting a
// //multinet:owns or //lint:allow annotation a finding depends on —
// fails this test.
func TestRepositorySuiteClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	pkgs, err := TestLoader().LoadPatterns("../..", "./...")
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; go list pattern broken?", len(pkgs))
	}
	diags, err := RunAnalyzers(pkgs, DefaultAnalyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			continue
		}
		t.Errorf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}

	// The invariants are only enforced if the annotations carrying them
	// exist: a sweeping deletion of pragmas must not silently pass.
	idx := NewCommentIndex()
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			idx.AddFile(pkg.Fset, f)
		}
	}
	if n := idx.CountMarker("multinet:hotpath"); n < 10 {
		t.Errorf("found %d //multinet:hotpath pragmas, want >= 10 (netem admit/deliver, tcp dispatch/ack, mptcp rank/admit, timer push/fire must stay annotated)", n)
	}
	if n := idx.CountMarker("multinet:owns"); n < 5 {
		t.Errorf("found %d //multinet:owns markers, want >= 5", n)
	}
	if suppressed == 0 {
		t.Errorf("no suppressed findings: the //lint:allow exceptions documented in DESIGN.md have disappeared")
	}
}
