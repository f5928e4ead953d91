package analysis

import (
	"go/types"
	"testing"
)

// TestLoaderChecksEachPackageOnce pins that a package another loaded
// package imports is checked once: the importer sees the declaring
// package's own objects, and a later LoadPatterns on the same Loader
// returns the package it already checked.
func TestLoaderChecksEachPackageOnce(t *testing.T) {
	l := NewLoader()
	pkgs, err := l.LoadPatterns(".", "./testdata/unusedapi/a", "./testdata/unusedapi/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].Types.Name() != "a" || pkgs[1].Types.Name() != "b" {
		t.Fatalf("loaded %d packages, want a then b", len(pkgs))
	}
	a, b := pkgs[0], pkgs[1]
	for _, name := range []string{"Link", "Rate"} {
		var def, use types.Object
		for id, obj := range a.Info.Defs {
			if id.Name == name {
				def = obj
			}
		}
		for id, obj := range b.Info.Uses {
			if id.Name == name {
				use = obj
			}
		}
		if def == nil || use == nil {
			t.Fatalf("%s: a defines %v, b uses %v", name, def, use)
		}
		if def != use {
			t.Errorf("%s: b's Uses object %p is not a's Defs object %p", name, use, def)
		}
	}

	again, err := l.LoadPatterns(".", "./testdata/unusedapi/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0] != a {
		t.Errorf("second LoadPatterns of a returned %v, want the package checked first (%p)", again, a)
	}
}
