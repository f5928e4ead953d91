package replay

import (
	"reflect"
	"testing"
	"time"

	"multinet/internal/apps"
	"multinet/internal/mptcp"
	"multinet/internal/phy"
)

// fuzzConfigs are the transports a fuzzed replay draws from: the paper's
// six and the scheduler family.
func fuzzConfigs() []TransportConfig {
	scheds := mptcp.Schedulers()
	return append(Configs(WiFiLTEPaths()), SchedulerConfigs(WiFiLTEPaths(), scheds[:])...)
}

// decodeReplay turns fuzz bytes into a replay: a location, a transport
// from configs and 1-6 flows. Each flow takes 7 bytes: a request of
// 1-2048 bytes and a response of 1-32768 (the reference's domain: it
// answers a request only once a byte of it has arrived, and completes a
// flow only on a byte of response), a think time that is exactly 0 for a
// quarter of the draws, a start on a 25 ms grid so that flows tie, and a
// parent that is an earlier flow or none.
func decodeReplay(b []byte, configs []TransportConfig) (phy.Condition, TransportConfig, apps.App, bool) {
	if len(b) < 10 {
		return phy.Condition{}, TransportConfig{}, apps.App{}, false
	}
	cond := phy.Locations[int(b[0])%len(phy.Locations)].Condition()
	tc := configs[int(b[1])%len(configs)]
	n := 1 + int(b[2])%6
	b = b[3:]
	app := apps.App{Name: "fuzz", Interaction: "launch"}
	for i := 0; i < n && len(b) >= 7; i, b = i+1, b[7:] {
		f := apps.Flow{
			ID:            10 + i,
			RequestBytes:  1 + (int(b[0])|int(b[1])<<8)%2048,
			ResponseBytes: 1 + (int(b[2])|int(b[3])<<8)%32768,
			Start:         time.Duration(b[5]%8) * 25 * time.Millisecond,
			DependsOn:     -1,
		}
		if b[4] >= 64 {
			f.Think = time.Duration(b[4]) * 797 * time.Microsecond
		}
		if p := int(b[6]) % (i + 1); p < i {
			f.DependsOn = 10 + p
		}
		app.Flows = append(app.Flows, f)
	}
	return cond, tc, app, true
}

// FuzzReplayMatchesReference holds Run, whose flows are core's flow
// records, to the replay engine it replaced (refRun): the same Result,
// every instant included, for any app shape, location and transport in
// the reference's domain.
func FuzzReplayMatchesReference(f *testing.F) {
	f.Add([]byte{7, 0, 5, 88, 2, 40, 200, 0, 255, 1, 1, 9, 9, 3, 1, 0, 0, 0, 0, 0, 0, 16, 16, 16, 16, 16, 16, 9, 9, 9, 9, 9, 9, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{3, 2, 2, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1})
	f.Add([]byte{15, 9, 3, 200, 7, 100, 70, 3, 0, 30, 1, 250, 64, 3, 1, 30, 1, 250, 64, 3, 2})
	configs := fuzzConfigs()
	f.Fuzz(func(t *testing.T, b []byte) {
		cond, tc, app, ok := decodeReplay(b, configs)
		if !ok {
			t.Skip()
		}
		rec := Record(app)
		got, want := Run(1, cond, rec, tc), refRun(1, cond, rec, tc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at %s, flows %+v:\n got %+v\nwant %+v", tc.Name, cond.Name, app.Flows, got, want)
		}
	})
}
