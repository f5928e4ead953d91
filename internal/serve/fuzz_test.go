package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"multinet/internal/selector"
)

// fuzzSeeds are the corpus both targets start from: well-formed
// requests of each shape, and every body a past scanner bug accepted
// (non-finite and out-of-range numbers, a missing comma, a bare word,
// a leading zero, trailing bytes, a raw control byte).
var fuzzSeeds = []string{
	`{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}`,
	`{"site":"cdn","flow_bytes":5242880}`,
	` { "site" : "a\"b\\c\/d" , "flow_bytes" : 0 , "x" : [1] } `,
	`{"site":"s","path":"lte","mbps":-0,"rtt_ms":1E+2,"note":"ok","on":true,"off":false,"none":null}`,
	`{"site":"x","path":"wifi","mbps":1e400,"rtt_ms":25}`,
	`{"site":"x","path":"wifi","mbps":5,"rtt_ms":1e300}`,
	`{"site":"z" "path":"wifi","mbps":5,"rtt_ms":25}`,
	`{"site":"z","path":"wifi","mbps":5,"rtt_ms":25,"x":nonsense}`,
	`{"site":"z","path":"wifi","mbps":01,"rtt_ms":25}`,
	`{"site":"z","path":"wifi","mbps":5,"rtt_ms":25}garbage`,
	"{\"site\":\"z\x01\",\"path\":\"wifi\",\"mbps\":5,\"rtt_ms\":25}",
	`{"site":"z" "flow_bytes":1}`,
	`{"site":"z","flow_bytes":01}`,
	`{"site":"z","flow_bytes":1}}`,
}

// jsonField decodes the raw value of key with encoding/json into v,
// reporting whether the key was present and decoded.
func jsonField(fields map[string]json.RawMessage, key string, v any) bool {
	raw, ok := fields[key]
	return ok && json.Unmarshal(raw, v) == nil
}

// FuzzTelemetryBytes holds the telemetry scanner to encoding/json:
// whenever TelemetryBytes accepts a body, encoding/json accepts it too
// and reads the same site, path, mbps and rtt_ms, and the store holds
// exactly that sample. The scanner may reject what encoding/json
// accepts — escapes outside its subset, out-of-range values — never
// the reverse.
func FuzzTelemetryBytes(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		site, path, mbps, rtt, ok := scanTelemetry(bytes.Clone(body))
		s, clk := newTestServer(selector.StoreConfig{Shards: 1})
		if got := s.TelemetryBytes(bytes.Clone(body), &Scratch{}); got != http.StatusNoContent && got != http.StatusBadRequest || ok != (got == http.StatusNoContent) {
			t.Fatalf("%q: TelemetryBytes = %d, scanner ok = %v", body, got, ok)
		}
		if !ok {
			return
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatalf("scanner accepted %q; encoding/json: %v", body, err)
		}
		var want struct {
			site, path  string
			mbps, rttMS float64
		}
		if !jsonField(fields, "site", &want.site) || !jsonField(fields, "path", &want.path) ||
			!jsonField(fields, "mbps", &want.mbps) || !jsonField(fields, "rtt_ms", &want.rttMS) {
			t.Fatalf("scanner accepted %q; encoding/json reads %v", body, fields)
		}
		wantRTT := time.Duration(want.rttMS * float64(time.Millisecond))
		if string(site) != want.site || string(path) != want.path ||
			math.Float64bits(mbps) != math.Float64bits(want.mbps) || rtt != wantRTT {
			t.Fatalf("%q: scanner read %q %q %v %v, encoding/json %q %q %v %v",
				body, site, path, mbps, rtt, want.site, want.path, want.mbps, wantRTT)
		}
		e, found := s.store.Estimate(want.site, clk.at)
		if !found || len(e.Paths) != 1 || e.Paths[0].Name != want.path ||
			math.Float64bits(e.Paths[0].Mbps) != math.Float64bits(want.mbps) || e.Paths[0].RTT != wantRTT {
			t.Fatalf("%q: store holds %v %+v", body, found, e)
		}
	})
}

// FuzzDecideBytes holds the decide scanner to encoding/json: whenever
// DecideBytes accepts a body (404 on the empty store, not 400),
// encoding/json accepts it too and reads the same site and flow_bytes.
func FuzzDecideBytes(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		site, flowBytes, ok := scanDecide(bytes.Clone(body))
		s, _ := newTestServer(selector.StoreConfig{Shards: 1})
		if got := s.DecideBytes(bytes.Clone(body), &Scratch{}); got != http.StatusNotFound && got != http.StatusBadRequest || ok != (got == http.StatusNotFound) {
			t.Fatalf("%q: DecideBytes = %d, scanner ok = %v", body, got, ok)
		}
		if !ok {
			return
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatalf("scanner accepted %q; encoding/json: %v", body, err)
		}
		var wantSite string
		var wantFlow int64
		if !jsonField(fields, "site", &wantSite) || !jsonField(fields, "flow_bytes", &wantFlow) {
			t.Fatalf("scanner accepted %q; encoding/json reads %v", body, fields)
		}
		if string(site) != wantSite || int64(flowBytes) != wantFlow {
			t.Fatalf("%q: scanner read %q %d, encoding/json %q %d", body, site, flowBytes, wantSite, wantFlow)
		}
	})
}
