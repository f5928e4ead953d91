package analysis

import "testing"

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, Determinism, "./testdata/determinism")
}

func TestIsEnginePackage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"multinet/internal/simnet", true},
		{"multinet/internal/tcp", true},
		{"multinet/internal/experiments/engine", true},
		{"multinet/internal/energy", true},
		{"multinet/internal/stats", false},
		{"multinet/internal/analysis", false},
		{"multinet/cmd/multinetlint", false},
		{"multinet/internal/tcpdump", false}, // prefix must break at a path separator
	}
	for _, c := range cases {
		if got := IsEnginePackage(c.path); got != c.want {
			t.Errorf("IsEnginePackage(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
