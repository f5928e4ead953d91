package analysis

import "testing"

func TestUnusedAPIGolden(t *testing.T) {
	runGolden(t, UnusedAPI, "./testdata/unusedapi/a", "./testdata/unusedapi/b")
}
