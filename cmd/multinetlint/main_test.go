package main

import (
	"strings"
	"testing"

	"multinet/internal/analysis"
)

func has(analyzers []*analysis.Analyzer, a *analysis.Analyzer) bool {
	for _, b := range analyzers {
		if b == a {
			return true
		}
	}
	return false
}

// TestSubsetRunSkipsUnusedAPI pins that only a whole-module run gets
// unusedapi, and that a subset run says so and reports nothing
// spurious, where unusedapi itself would: on tcp alone it cannot see
// the callers in mptcp and core.
func TestSubsetRunSkipsUnusedAPI(t *testing.T) {
	all := analysis.DefaultAnalyzers()
	var stderr strings.Builder
	if got := forPatterns("../..", []string{"./..."}, all, &stderr); !has(got, analysis.UnusedAPI) || stderr.Len() != 0 {
		t.Fatalf("whole module: unusedapi kept = %v, stderr %q", has(got, analysis.UnusedAPI), stderr.String())
	}
	for _, c := range []struct {
		dir      string
		patterns []string
	}{
		{"../..", []string{"./internal/tcp"}},
		{"../..", []string{"./...", "./internal/tcp"}},
		{".", []string{"./..."}}, // ./... below the module root
	} {
		stderr.Reset()
		got := forPatterns(c.dir, c.patterns, all, &stderr)
		if has(got, analysis.UnusedAPI) || len(got) != len(all)-1 {
			t.Errorf("-C %s %v: analyzers %d, unusedapi kept = %v", c.dir, c.patterns, len(got), has(got, analysis.UnusedAPI))
		}
		if !strings.Contains(stderr.String(), "unusedapi skipped") {
			t.Errorf("-C %s %v: stderr %q does not say unusedapi was skipped", c.dir, c.patterns, stderr.String())
		}
	}

	if testing.Short() {
		t.Skip("type-checks internal/tcp and its imports")
	}
	patterns := []string{"./internal/tcp"}
	pkgs, err := analysis.NewLoader().LoadPatterns("../..", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	unsuppressed := func(analyzers []*analysis.Analyzer) []analysis.Diagnostic {
		diags, err := analysis.RunAnalyzers(pkgs, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		var out []analysis.Diagnostic
		for _, d := range diags {
			if !d.Suppressed {
				out = append(out, d)
			}
		}
		return out
	}
	if len(unsuppressed([]*analysis.Analyzer{analysis.UnusedAPI})) == 0 {
		t.Fatal("unusedapi on tcp alone found nothing: this test no longer shows why the skip exists")
	}
	for _, d := range unsuppressed(forPatterns("../..", patterns, all, &stderr)) {
		t.Errorf("subset run: %s:%d: %s: %s", d.File, d.Line, d.Analyzer, d.Message)
	}
}
