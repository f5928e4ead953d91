package analysis

import "testing"

func TestPoolOwnGolden(t *testing.T) {
	runGolden(t, PoolOwn, "./testdata/poolown")
}
