package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"multinet/internal/selector"
)

func TestBadFlagsNamesEachFlag(t *testing.T) {
	if bad := badFlags(selector.StoreConfig{}); len(bad) != 0 {
		t.Fatalf("defaults refused: %q", bad)
	}
	ok := selector.StoreConfig{Shards: selector.MaxShards, HalfLife: time.Second, Gain: 1, StaleAfter: time.Minute,
		Policy: selector.Selector{ShortFlowBytes: 1, MaxDisparity: 3, HoLAwareDisparity: 2}}
	if bad := badFlags(ok); len(bad) != 0 {
		t.Fatalf("valid flags refused: %q", bad)
	}
	for _, c := range []struct {
		flag string
		cfg  selector.StoreConfig
	}{
		{"-shards", selector.StoreConfig{Shards: selector.MaxShards + 1}},
		{"-shards", selector.StoreConfig{Shards: -1}},
		{"-gain", selector.StoreConfig{Gain: 2}},
		{"-gain", selector.StoreConfig{Gain: -0.5}},
		{"-gain", selector.StoreConfig{Gain: math.NaN()}},
		{"-half-life", selector.StoreConfig{HalfLife: -time.Second}},
		{"-stale-after", selector.StoreConfig{StaleAfter: -time.Second}},
		{"-short-flow-bytes", selector.StoreConfig{Policy: selector.Selector{ShortFlowBytes: -1}}},
		{"-max-disparity", selector.StoreConfig{Policy: selector.Selector{MaxDisparity: -1}}},
		{"-holaware-disparity", selector.StoreConfig{Policy: selector.Selector{HoLAwareDisparity: math.NaN()}}},
	} {
		bad := badFlags(c.cfg)
		if len(bad) != 1 || !strings.HasPrefix(bad[0], c.flag+" ") {
			t.Errorf("%+v: got %q, want one message naming %s", c.cfg, bad, c.flag)
		}
	}
}
