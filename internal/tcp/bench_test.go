package tcp

import (
	"testing"
	"time"
)

// Micro-benchmarks for the simulator's transport engine: events per
// transferred megabyte, useful when profiling experiment sweeps.

func benchDownload(b *testing.B, size int, loss float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := newTestNet(b, int64(i+1), 20, 15*time.Millisecond, loss)
		var done bool
		n.server.Accept = func(c *Conn) {
			c.SetCallbacks(Callbacks{OnEstablished: func(c *Conn) { c.Send(size); c.Close() }})
		}
		n.client.Dial(n.iface, "bench", Config{Callbacks: Callbacks{
			OnData: func(c *Conn, total int64) { done = done || total >= int64(size) },
		}})
		n.sim.Run()
		if !done {
			b.Fatal("transfer incomplete")
		}
	}
	b.SetBytes(int64(size))
}

func BenchmarkDownload100KBClean(b *testing.B) { benchDownload(b, 100<<10, 0) }
func BenchmarkDownload1MBClean(b *testing.B)   { benchDownload(b, 1<<20, 0) }
func BenchmarkDownload1MBLossy(b *testing.B)   { benchDownload(b, 1<<20, 0.02) }
