package core

import (
	"testing"
	"time"
)

// TestExactInstants pins Session.Run to the nanosecond: the goldens print
// milliseconds, so a FIN or a response that moves by a few nanoseconds
// can vanish in their rounding. The values were recorded before Session
// ran on the shared flow record, and hold after.
func TestExactInstants(t *testing.T) {
	for _, c := range []struct {
		cfg       Config
		dir       Direction
		fct, est  time.Duration
		processed uint64
	}{
		{Config{Transport: TCP, Iface: "wifi"}, Download, 568580000, 40140000, 419},
		{Config{Transport: TCP, Iface: "lte"}, Upload, 1207973330, 70186666, 417},
		{Config{Transport: MPTCP, Primary: "wifi"}, Download, 477703328, 40210000, 426},
		{Config{Transport: MPTCP, Primary: "lte"}, Upload, 603910000, 70280000, 422},
	} {
		s := NewSession(11, cleanCond(8, 6))
		r := s.Run(c.cfg, c.dir, 300_000)
		if n := s.Sim.Processed(); int64(r.FCT) != int64(c.fct) || int64(r.EstablishedAt) != int64(c.est) || n != c.processed {
			t.Errorf("%s dir %d: FCT %d ns, established %d ns, %d events; want %d, %d, %d",
				c.cfg.Name(), c.dir, int64(r.FCT), int64(r.EstablishedAt), n, int64(c.fct), int64(c.est), c.processed)
		}
		s.Close()
	}
}
