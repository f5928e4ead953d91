package analysis

import "testing"

func TestHotPathGolden(t *testing.T) {
	runGolden(t, HotPath, "./testdata/hotpath")
}
