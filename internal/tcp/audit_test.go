package tcp_test

import (
	"strings"
	"testing"

	"multinet/internal/core"
	"multinet/internal/phy"
	"multinet/internal/tcp"
)

// TestScoreboardRulePanicsAtClose skews one connection's pipe in a
// world that has moved a transfer: its Close panics naming
// scoreboard-accounting.
func TestScoreboardRulePanicsAtClose(t *testing.T) {
	s := core.NewSession(1, phy.NewCondition("audit",
		phy.Path{Name: "wifi", Profile: phy.PathProfile{DownMbps: 10, UpMbps: 4, RTTms: 40}}))
	if r := s.Run(core.Config{Transport: core.TCP, Iface: "wifi"}, core.Download, 64<<10); !r.Completed {
		t.Fatal("transfer incomplete")
	}
	for c := range s.Server.Conns() {
		tcp.SkewPipe(c)
	}
	defer func() {
		if err, _ := recover().(error); err == nil || !strings.Contains(err.Error(), "scoreboard-accounting: ") {
			t.Errorf("Close panicked with %v", err)
		}
	}()
	s.Close()
}
