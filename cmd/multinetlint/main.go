// Command multinetlint runs the repository's custom static-analysis
// suite (internal/analysis): determinism, poolown, hotpath and
// unusedapi.
//
// Usage:
//
//	go run ./cmd/multinetlint [flags] [packages]
//
// With no package patterns it analyzes ./.... unusedapi runs only on
// the whole module (./... with -C at the module root, the default when
// run from there): on any other patterns it is skipped, with a line on
// stderr, since a name another package calls would look unused. It
// exits 0 when the suite is clean, 1 when any unsuppressed violation is
// found, and 2 on usage or load errors. //lint:allow-suppressed
// findings are counted on stderr (and included in -json output) so the
// exception budget stays visible.
//
// The suite is stdlib-only by design: the container image has no
// module proxy access, so the golang.org/x/tools unitchecker protocol
// (`go vet -vettool`) is not implemented. Run this command directly;
// CI does, next to staticcheck.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"multinet/internal/analysis"
)

func main() {
	var (
		jsonOut    = flag.Bool("json", false, "emit findings as JSON (an array of diagnostics, suppressed ones included)")
		outFile    = flag.String("out", "", "write the (JSON or text) report to this file as well as stdout")
		only       = flag.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
		list       = flag.Bool("list", false, "list available analyzers and exit")
		chdir      = flag.String("C", ".", "module directory to run `go list` in")
		quietAllow = flag.Bool("q", false, "suppress the allowed-exception summary on stderr")
	)
	flag.Parse()

	all := analysis.DefaultAnalyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "multinetlint: unknown analyzer %q (have:", name)
				for _, a := range all {
					fmt.Fprintf(os.Stderr, " %s", a.Name)
				}
				fmt.Fprintln(os.Stderr, ")")
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzers = forPatterns(*chdir, patterns, analyzers, os.Stderr)

	loader := analysis.NewLoader()
	pkgs, err := loader.LoadPatterns(*chdir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "multinetlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "multinetlint: %v\n", err)
		os.Exit(2)
	}

	var report strings.Builder
	violations, allowed := 0, 0
	if *jsonOut {
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		enc, err := json.MarshalIndent(diags, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "multinetlint: encoding report: %v\n", err)
			os.Exit(2)
		}
		report.Write(enc)
		report.WriteByte('\n')
	}
	for _, d := range diags {
		if d.Suppressed {
			allowed++
			continue
		}
		violations++
		if !*jsonOut {
			fmt.Fprintf(&report, "%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}

	os.Stdout.WriteString(report.String())
	if *outFile != "" {
		if err := os.WriteFile(*outFile, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "multinetlint: writing %s: %v\n", *outFile, err)
			os.Exit(2)
		}
	}
	if !*quietAllow {
		fmt.Fprintf(os.Stderr, "multinetlint: %d violation(s), %d allowed exception(s) across %d package(s)\n",
			violations, allowed, len(pkgs))
	}
	if violations > 0 {
		os.Exit(1)
	}
}

// forPatterns drops unusedapi unless patterns name the whole module:
// a name only another package calls would otherwise be reported on a
// run that never loaded that package. The skip is said on stderr.
func forPatterns(dir string, patterns []string, analyzers []*analysis.Analyzer, stderr io.Writer) []*analysis.Analyzer {
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && len(patterns) == 1 && patterns[0] == "./..." {
		return analyzers
	}
	var kept []*analysis.Analyzer
	for _, a := range analyzers {
		if a == analysis.UnusedAPI {
			fmt.Fprintln(stderr, "multinetlint: unusedapi skipped: it needs the whole module (./... from the module root)")
			continue
		}
		kept = append(kept, a)
	}
	return kept
}
