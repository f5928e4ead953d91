package main

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLinksNoNetHTTP walks the command's import closure, test files
// left out, and fails if net/http or crypto/tls is in it. The service
// answers from internal/serve/httpd's own HTTP/1.1 loop; one stray
// import of either brings back about a hundred packages, 1.6 MB of
// binary and a sixth of the running server's memory. The walk reads
// import clauses with go/build, resolving the module's packages under
// its root and the rest under GOROOT, so it runs no go command.
func TestLinksNoNetHTTP(t *testing.T) {
	const module = "multinet"
	root := filepath.Join("..", "..") // go test runs in cmd/serve
	importedBy := map[string]string{module + "/cmd/serve": ""}
	queue := []string{module + "/cmd/serve"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		dir := filepath.Join(build.Default.GOROOT, "src", path)
		if rest, ok := strings.CutPrefix(path, module+"/"); ok {
			dir = filepath.Join(root, rest)
		} else if _, err := os.Stat(dir); err != nil {
			dir = filepath.Join(build.Default.GOROOT, "src", "vendor", path)
		}
		pkg, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s (imported by %s): %v", path, importedBy[path], err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := importedBy[imp]; !seen && imp != "C" {
				importedBy[imp] = path
				queue = append(queue, imp)
			}
		}
	}
	for _, banned := range []string{"crypto/tls", "net/http"} {
		by, linked := importedBy[banned]
		if !linked {
			continue
		}
		chain := banned
		for ; by != ""; by = importedBy[by] {
			chain = by + " -> " + chain
		}
		t.Errorf("cmd/serve links %s", chain)
	}
	t.Logf("cmd/serve links %d packages", len(importedBy))
}
