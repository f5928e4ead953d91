package netem_test

import (
	"strings"
	"testing"

	"multinet/internal/core"
	"multinet/internal/netem"
	"multinet/internal/phy"
)

// TestAuditRulesPanicAtClose breaks each rule of Host.Audit once in a
// world that has moved a transfer, and checks that the world's Close
// panics naming it.
func TestAuditRulesPanicAtClose(t *testing.T) {
	for _, tc := range []struct {
		rule    string
		breakIt func(w *core.World)
	}{
		{"link-conservation", func(w *core.World) { netem.CountPhantomSend(w.Host.Iface("wifi").UpLink()) }},
		{"packet-leak", func(w *core.World) { netem.NewPacket(w.Sim) }},
	} {
		s := core.NewSession(1, phy.NewCondition("audit",
			phy.Path{Name: "wifi", Profile: phy.PathProfile{DownMbps: 10, UpMbps: 4, RTTms: 40}}))
		if r := s.Run(core.Config{Transport: core.TCP, Iface: "wifi"}, core.Download, 64<<10); !r.Completed {
			t.Fatalf("%s: transfer incomplete", tc.rule)
		}
		tc.breakIt(&s.World)
		if msg := closePanic(s.Close); !strings.Contains(msg, tc.rule+": ") {
			t.Errorf("%s: Close panicked with %q", tc.rule, msg)
		}
	}
}

// closePanic runs close and returns what it panicked with, "" if
// nothing.
func closePanic(close func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = r.(error).Error()
		}
	}()
	close()
	return ""
}
