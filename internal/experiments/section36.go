package experiments

import (
	"fmt"
	"time"

	"multinet/internal/capture"
	"multinet/internal/energy"
	"multinet/internal/experiments/engine"
	"multinet/internal/mptcp"
	"multinet/internal/netem"
	"multinet/internal/phy"
	"multinet/internal/simnet"
	"multinet/internal/tcp"
)

func init() {
	register("figure15", "Figure 15", "3.6.1", 13, func(o Options) fmt.Stringer { return Figure15(o) })
	register("figure16", "Figure 16", "3.6.2", 14, func(o Options) fmt.Stringer { return Figure16(o) })
	register("energy-backup", "Section 3.6.2 energy", "3.6.2", 15, func(o Options) fmt.Stringer { return EnergyBackup(o) })
}

// Fig15Panel is one packet-transmission panel of the paper's Fig. 15.
type Fig15Panel struct {
	Name        string
	Description string
	// WiFiEvents/LTEEvents are packet event times per interface.
	WiFiEvents, LTEEvents []time.Duration
	// Horizon is the panel's time axis end.
	Horizon time.Duration
	// Completed reports whether the transfer finished by Horizon.
	Completed bool
	// CompletedAt is the finish time (0 when !Completed).
	CompletedAt time.Duration
}

// Figure15Result holds all eight panels (a-h).
type Figure15Result struct{ Panels []Fig15Panel }

// fig15Cond gives both paths ~4 Mbit/s so a 8 MB transfer lasts the
// paper's ~19 seconds.
var fig15Cond = phy.Condition{
	Name: "fig15",
	WiFi: phy.PathProfile{DownMbps: 4, UpMbps: 1.6, RTTms: 45, QueuePkts: 100},
	LTE:  phy.PathProfile{DownMbps: 4, UpMbps: 1.6, RTTms: 70, QueuePkts: 300},
}

// fig15Run executes one backup/full-mode transfer with mid-flow
// interface manipulation and captures per-interface packet rasters.
//
// The unplug semantics follow the paper's observed asymmetry (Section
// 3.6.1): unplugging the WiFi phone is detectable (the tether's
// carrier drops → modelled as an administrative down), while
// unplugging the LTE phone leaves a silent blackhole.
func fig15Run(seed int64, name, desc string, mode mptcp.Mode, primary string,
	backup []string, horizon time.Duration,
	manipulate func(sim *simnet.Sim, host *netem.Host)) Fig15Panel {

	sim := simnet.New(seed)
	defer sim.Release()
	host := phy.BuildHost(sim, fig15Cond)
	clientStack := tcp.NewStack(sim, tcp.ClientSide)
	serverStack := tcp.NewStack(sim, tcp.ServerSide)
	// The panels only need packet event instants per interface, so the
	// taps keep a timestamp each instead of a full capture.Record. An
	// interface that carries the whole transfer sees four events per
	// segment — data and ACK, each sent and received — and a list sized
	// for that never grows (grown by doubling, the lists were 6 MB of
	// garbage per sweep).
	const size = 8 << 20
	events := map[string]*[]time.Duration{}
	for _, ifc := range host.Ifaces() {
		clientStack.Bind(ifc)
		serverStack.Bind(ifc)
		ts := new([]time.Duration)
		*ts = make([]time.Duration, 0, 4*size/tcp.MSS+1024)
		events[ifc.Name] = ts
		tap := func(*netem.Packet) { *ts = append(*ts, sim.Now()) }
		ifc.AddSendTap(tap)
		ifc.AddRecvTap(tap)
	}
	srv := mptcp.NewServer(sim, serverStack, mptcp.ServerConfig{Mode: mode})
	srv.OnConn = func(c *mptcp.Conn) { c.Send(size); c.Close() }
	var done time.Duration
	mptcp.Dial(sim, clientStack, host, mptcp.Config{
		ConnID: "fig15", Primary: primary, Mode: mode, BackupIfaces: backup,
	}, mptcp.Callbacks{
		OnData: func(c *mptcp.Conn, total int64) {
			if total >= size && done == 0 {
				done = sim.Now()
			}
		},
	})
	if manipulate != nil {
		manipulate(sim, host)
	}
	sim.RunUntil(horizon)
	p := Fig15Panel{
		Name:        name,
		Description: desc,
		WiFiEvents:  *events["wifi"],
		LTEEvents:   *events["lte"],
		Horizon:     horizon,
		Completed:   done > 0,
		CompletedAt: done,
	}
	if done > 0 && done+5*time.Second < horizon {
		p.Horizon = done + 5*time.Second
	}
	return p
}

// fig15Spec declares one panel's scenario; Figure15 sweeps the specs.
type fig15Spec struct {
	name, desc string
	mode       mptcp.Mode
	primary    string
	backup     []string
	horizon    time.Duration
	manipulate func(sim *simnet.Sim, host *netem.Host)
}

// Figure15 reproduces all eight packet-pattern panels, running them
// concurrently (each panel owns its own Sim).
func Figure15(o Options) Figure15Result {
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	specs := []fig15Spec{
		{name: "a", desc: "Full-MPTCP, LTE primary",
			mode: mptcp.FullMPTCP, primary: "lte", horizon: sec(60)},
		{name: "b", desc: "Full-MPTCP, WiFi primary",
			mode: mptcp.FullMPTCP, primary: "wifi", horizon: sec(60)},
		{name: "c", desc: "Backup, LTE primary, WiFi backup",
			mode: mptcp.Backup, primary: "lte", backup: []string{"wifi"}, horizon: sec(60)},
		{name: "d", desc: "Backup, WiFi primary, LTE backup",
			mode: mptcp.Backup, primary: "wifi", backup: []string{"lte"}, horizon: sec(60)},
		{name: "e", desc: "Backup, LTE primary, WiFi backup; LTE multipath-off at t=9s",
			mode: mptcp.Backup, primary: "lte", backup: []string{"wifi"}, horizon: sec(80),
			manipulate: func(sim *simnet.Sim, host *netem.Host) {
				sim.Schedule(sec(9), func() { host.Iface("lte").SetDown(true) })
			}},
		{name: "f", desc: "Backup, WiFi primary, LTE backup; WiFi multipath-off at t=11s",
			mode: mptcp.Backup, primary: "wifi", backup: []string{"lte"}, horizon: sec(80),
			manipulate: func(sim *simnet.Sim, host *netem.Host) {
				sim.Schedule(sec(11), func() { host.Iface("wifi").SetDown(true) })
			}},
		{name: "g", desc: "Backup, LTE primary, WiFi backup; unplug LTE at t=3s (silent), replug at t=68s",
			mode: mptcp.Backup, primary: "lte", backup: []string{"wifi"}, horizon: sec(200),
			manipulate: func(sim *simnet.Sim, host *netem.Host) {
				sim.Schedule(sec(3), func() { host.Iface("lte").SetBlackhole(true) })
				sim.Schedule(sec(68), func() { host.Iface("lte").SetBlackhole(false) })
			}},
		{name: "h", desc: "Backup, WiFi primary, LTE backup; unplug WiFi at t=6s (carrier loss)",
			mode: mptcp.Backup, primary: "wifi", backup: []string{"lte"}, horizon: sec(80),
			manipulate: func(sim *simnet.Sim, host *netem.Host) {
				sim.Schedule(sec(6), func() { host.Iface("wifi").SetDown(true) })
			}},
	}
	panels := engine.Sweep(o, len(specs), func(i int) Fig15Panel {
		sp := specs[i]
		return fig15Run(seedFor(o.BaseSeed(), 15, i+1), sp.name, sp.desc,
			sp.mode, sp.primary, sp.backup, sp.horizon, sp.manipulate)
	})
	return Figure15Result{Panels: panels}
}

// String renders the rasters as ASCII strips.
func (r Figure15Result) String() string {
	out := "Figure 15: packet transmission patterns ('|' = packet events)\n"
	for _, p := range r.Panels {
		status := "did not complete"
		if p.Completed {
			status = fmt.Sprintf("completed at %s", fmtDur(p.CompletedAt))
		}
		out += fmt.Sprintf("(%s) %s — %s [axis 0..%s]\n", p.Name, p.Description, status, fmtDur(p.Horizon))
		out += "  LTE  " + capture.RasterString(p.LTEEvents, p.Horizon, 72) + "\n"
		out += "  WiFi " + capture.RasterString(p.WiFiEvents, p.Horizon, 72) + "\n"
	}
	return out
}

// Fig16Panel is one power trace of the paper's Fig. 16.
type Fig16Panel struct {
	Name        string
	Description string
	Radio       string
	Trace       string  // ASCII power strip
	PeakWatts   float64 // max observed total power
	TailSecs    float64 // time spent above base after the last data
	Joules      float64 // radio energy above base
}

// Figure16Result holds the four panels.
type Figure16Result struct{ Panels []Fig16Panel }

// Figure16 runs backup-mode transfers and reports each radio's power
// trace in the backup and non-backup roles.
func Figure16(o Options) Figure16Result {
	run := func(seed int64, primary string, backup string) (map[string]*energy.Meter, time.Duration) {
		sim := simnet.New(seed)
		defer sim.Release() // the meters only read its clock from here on
		host := phy.BuildHost(sim, fig15Cond)
		clientStack := tcp.NewStack(sim, tcp.ClientSide)
		serverStack := tcp.NewStack(sim, tcp.ServerSide)
		meters := map[string]*energy.Meter{
			"wifi": energy.NewMeter(sim, energy.WiFi),
			"lte":  energy.NewMeter(sim, energy.LTE),
		}
		for _, ifc := range host.Ifaces() {
			clientStack.Bind(ifc)
			serverStack.Bind(ifc)
			meters[ifc.Name].Attach(ifc)
		}
		srv := mptcp.NewServer(sim, serverStack, mptcp.ServerConfig{Mode: mptcp.Backup})
		const size = 8 << 20
		srv.OnConn = func(c *mptcp.Conn) { c.Send(size); c.Close() }
		var done time.Duration
		mptcp.Dial(sim, clientStack, host, mptcp.Config{
			ConnID: "fig16", Primary: primary, Mode: mptcp.Backup,
			BackupIfaces: []string{backup},
		}, mptcp.Callbacks{OnData: func(c *mptcp.Conn, total int64) {
			if total >= size && done == 0 {
				done = sim.Now()
			}
		}})
		sim.RunUntil(50 * time.Second)
		return meters, done
	}

	panel := func(name, desc, radio string, m *energy.Meter, done time.Duration) Fig16Panel {
		p := Fig16Panel{
			Name: name, Description: desc, Radio: radio,
			Trace:  m.TraceString(50*time.Second, 72),
			Joules: m.RadioJoules(),
		}
		for _, s := range m.Trace() {
			if energy.BaseWatts+s.Watts > p.PeakWatts {
				p.PeakWatts = energy.BaseWatts + s.Watts
			}
		}
		// Tail time: above-base time after the transfer completed.
		if done > 0 {
			var above time.Duration
			tr := m.Trace()
			for i, s := range tr {
				end := 50 * time.Second
				if i+1 < len(tr) {
					end = tr[i+1].T
				}
				if s.Watts > 0 && end > done {
					start := s.T
					if start < done {
						start = done
					}
					above += end - start
				}
			}
			p.TailSecs = above.Seconds()
		}
		return p
	}

	type runOut struct {
		meters map[string]*energy.Meter
		done   time.Duration
	}
	// Cell 0 — WiFi backup: LTE carries the data (panels a and d's
	// mirror). Cell 1 — LTE backup: WiFi carries the data (b and c's).
	outs := engine.Sweep(o, 2, func(i int) runOut {
		primary, backup := "lte", "wifi"
		if i == 1 {
			primary, backup = "wifi", "lte"
		}
		m, done := run(seedFor(o.BaseSeed(), 16, i+1), primary, backup)
		return runOut{meters: m, done: done}
	})
	mA, doneA := outs[0].meters, outs[0].done
	mB, doneB := outs[1].meters, outs[1].done

	return Figure16Result{Panels: []Fig16Panel{
		panel("a", "LTE power, non-backup (carrying data)", "lte", mA["lte"], doneA),
		panel("b", "WiFi power, non-backup (carrying data)", "wifi", mB["wifi"], doneB),
		panel("c", "LTE power, backup (SYN/FIN only)", "lte", mB["lte"], doneB),
		panel("d", "WiFi power, backup (SYN/FIN only)", "wifi", mA["wifi"], doneA),
	}}
}

// String renders the power traces.
func (r Figure16Result) String() string {
	out := "Figure 16: radio power traces ('#' active, '~' tail, '.' idle; axis 0..50s)\n"
	for _, p := range r.Panels {
		out += fmt.Sprintf("(%s) %s: peak %.1f W, post-flow tail %.1f s, radio energy %.1f J\n  %s\n",
			p.Name, p.Description, p.PeakWatts, p.TailSecs, p.Joules, p.Trace)
	}
	return out
}

// EnergyBackupResult quantifies Section 3.6.2: energy saved by Backup
// mode (LTE as backup) versus Full-MPTCP, as a function of flow
// duration.
type EnergyBackupResult struct {
	FlowSecs  []float64
	SavingPct []float64
	// BreakEvenSecs estimates where savings exceed 50%.
	BreakEvenSecs float64
}

// EnergyBackup sweeps flow durations and compares LTE radio energy
// with LTE as a backup (SYN+FIN only) against LTE actively carrying
// half the transfer.
func EnergyBackup(o Options) EnergyBackupResult {
	res := EnergyBackupResult{}
	durations := []float64{2, 5, 10, 15, 20, 30, 45, 60}
	savings := engine.Sweep(o, len(durations), func(i int) float64 {
		d := durations[i]
		flow := time.Duration(d * float64(time.Second))
		horizon := flow + 16*time.Second

		// Backup: LTE sees only SYN at 0 and FIN at flow end.
		simA := simnet.New(seedFor(o.BaseSeed(), 362, int(d)))
		defer simA.Release()
		backup := energy.NewMeter(simA, energy.LTE)
		backup.OnPacket()
		simA.Schedule(flow, backup.OnPacket)
		simA.RunUntil(horizon)

		// Full-MPTCP: LTE active for the whole flow.
		simB := simnet.New(seedFor(o.BaseSeed(), 363, int(d)))
		defer simB.Release()
		active := energy.NewMeter(simB, energy.LTE)
		for t := time.Duration(0); t <= flow; t += 20 * time.Millisecond {
			tt := t
			simB.Schedule(tt, active.OnPacket)
		}
		simB.RunUntil(horizon)

		return 1 - backup.RadioJoules()/active.RadioJoules()
	})
	for i, d := range durations {
		res.FlowSecs = append(res.FlowSecs, d)
		res.SavingPct = append(res.SavingPct, savings[i]*100)
		if res.BreakEvenSecs == 0 && savings[i] >= 0.5 {
			res.BreakEvenSecs = d
		}
	}
	return res
}

// String renders the sweep.
func (r EnergyBackupResult) String() string {
	var rows [][]string
	for i := range r.FlowSecs {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", r.FlowSecs[i]),
			fmt.Sprintf("%.0f%%", r.SavingPct[i]),
		})
	}
	return "Section 3.6.2: LTE-backup energy saving vs flow duration\n" +
		table([]string{"Flow (s)", "Energy saved"}, rows) +
		fmt.Sprintf("savings exceed 50%% only for flows >= %.0f s (paper: little saved under 15 s)\n",
			r.BreakEvenSecs)
}
