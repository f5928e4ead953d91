package experiments

import (
	"fmt"
	"time"

	"multinet/internal/core"
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
var fig15Cond = phy.NewCondition("fig15",
	phy.Path{Name: "wifi", Profile: phy.PathProfile{DownMbps: 4, UpMbps: 1.6, RTTms: 45, QueuePkts: 100}},
	phy.Path{Name: "lte", Profile: phy.PathProfile{DownMbps: 4, UpMbps: 1.6, RTTms: 70, QueuePkts: 300}},
)

// fig15Cond's interfaces in path order: the index backupRun hands its
// observer.
const (
	wifiIface = iota
	lteIface
)

// backupSize is the download both Section 3.6 transfers run: 8 MB.
const backupSize = 8 << 20

// backupRun runs one 8 MB download over fig15Cond in cell c's world, in
// the given mode, with manipulate (if any) scheduling mid-flow interface
// changes: one core.Flow whose client never closes. Every packet sent or received on
// an interface is handed to observe as the interface's index and the
// instant; Figure 15 keeps the instants, Figure 16 feeds them to energy
// meters. It returns the completion time, 0 if the transfer did not
// finish by horizon.
func backupRun(c engine.Cell, mode mptcp.Mode, primary string, backup []string,
	horizon time.Duration, manipulate func(sim *simnet.Sim, host *netem.Host),
	observe func(iface int, t time.Duration)) time.Duration {

	w := core.NewWorld(c.Seed(), fig15Cond)
	defer w.Close()
	sim, host := w.Sim, w.Host
	for i, ifc := range host.Ifaces() {
		tap := func(*netem.Packet) { observe(i, sim.Now()) }
		ifc.AddSendTap(tap)
		ifc.AddRecvTap(tap)
	}
	fs := core.NewFlows(w)
	fs.Open(1)
	f := fs.Flow(0)
	*f = core.Flow{Name: "backup", Response: backupSize,
		Config: core.Config{Transport: core.MPTCP, Primary: primary, Mode: mode, BackupIfaces: backup}}
	fs.Start(f)
	if manipulate != nil {
		manipulate(sim, host)
	}
	sim.RunUntil(horizon)
	return f.Done
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
//
// The unplug semantics follow the paper's observed asymmetry (Section
// 3.6.1): unplugging the WiFi phone is detectable (the tether's
// carrier drops → modelled as an administrative down), while
// unplugging the LTE phone leaves a silent blackhole.
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
		// The panels keep every packet instant per interface. An
		// interface that carries the whole transfer sees four per
		// segment (data and ACK, each sent and received), and a list
		// sized for that never grows (grown by doubling, the lists were
		// 6 MB of garbage per sweep).
		var events [2][]time.Duration
		for k := range events {
			events[k] = make([]time.Duration, 0, 4*backupSize/tcp.MSS+1024)
		}
		done := backupRun(o.Cell(15, 1).Unpaired(i), sp.mode, sp.primary, sp.backup,
			sp.horizon, sp.manipulate, func(k int, t time.Duration) { events[k] = append(events[k], t) })
		p := Fig15Panel{
			Name:        sp.name,
			Description: sp.desc,
			WiFiEvents:  events[wifiIface],
			LTEEvents:   events[lteIface],
			Horizon:     sp.horizon,
			Completed:   done > 0,
			CompletedAt: done,
		}
		if done > 0 && done+5*time.Second < sp.horizon {
			p.Horizon = done + 5*time.Second
		}
		return p
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
		out += "  LTE  " + rasterString(p.LTEEvents, p.Horizon, 72) + "\n"
		out += "  WiFi " + rasterString(p.WiFiEvents, p.Horizon, 72) + "\n"
	}
	return out
}

// rasterString renders packet event instants as a fixed-width ASCII
// strip ('|' where at least one event falls in the bucket), the textual
// analogue of Fig. 15.
func rasterString(events []time.Duration, until time.Duration, cols int) string {
	if cols <= 0 || until <= 0 {
		return ""
	}
	buf := make([]byte, cols)
	for i := range buf {
		buf[i] = ' '
	}
	for _, t := range events {
		if t < 0 || t > until {
			continue
		}
		i := int(float64(t) / float64(until) * float64(cols))
		if i >= cols {
			i = cols - 1
		}
		buf[i] = '|'
	}
	return string(buf)
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

// fig16Horizon is Figure 16's time axis.
const fig16Horizon = 50 * time.Second

// Figure16 runs backup-mode transfers and reports each radio's power
// trace in the backup and non-backup roles.
func Figure16(o Options) Figure16Result {
	panel := func(name, desc, radio string, m *energy.Meter, done time.Duration) Fig16Panel {
		p := Fig16Panel{
			Name: name, Description: desc, Radio: radio,
			Trace:  m.TraceString(fig16Horizon, 72),
			Joules: m.RadioJoules(fig16Horizon),
		}
		tr := m.Trace(fig16Horizon)
		for _, s := range tr {
			if energy.BaseWatts+s.Watts > p.PeakWatts {
				p.PeakWatts = energy.BaseWatts + s.Watts
			}
		}
		// Tail time: above-base time after the transfer completed.
		if done > 0 {
			var above time.Duration
			for i, s := range tr {
				end := fig16Horizon
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
		meters [2]*energy.Meter // by interface index
		done   time.Duration
	}
	// Cell 0 — WiFi backup: LTE carries the data (panels a and d's
	// mirror). Cell 1 — LTE backup: WiFi carries the data (b and c's).
	outs := engine.Sweep(o, 2, func(i int) runOut {
		primary, backup := "lte", "wifi"
		if i == 1 {
			primary, backup = "wifi", "lte"
		}
		var m [2]*energy.Meter
		m[wifiIface], m[lteIface] = energy.NewMeter(energy.WiFi), energy.NewMeter(energy.LTE)
		done := backupRun(o.Cell(16, 1).Unpaired(i), mptcp.Backup, primary, []string{backup},
			fig16Horizon, nil, func(k int, t time.Duration) { m[k].OnPacket(t) })
		return runOut{meters: m, done: done}
	})
	mA, doneA := outs[0].meters, outs[0].done
	mB, doneB := outs[1].meters, outs[1].done

	return Figure16Result{Panels: []Fig16Panel{
		panel("a", "LTE power, non-backup (carrying data)", "lte", mA[lteIface], doneA),
		panel("b", "WiFi power, non-backup (carrying data)", "wifi", mB[wifiIface], doneB),
		panel("c", "LTE power, backup (SYN/FIN only)", "lte", mB[lteIface], doneB),
		panel("d", "WiFi power, backup (SYN/FIN only)", "wifi", mA[wifiIface], doneA),
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
		flow := time.Duration(durations[i] * float64(time.Second))
		return backupSaving(energy.LTE, flow, flow+16*time.Second)
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

// backupSaving is the share of a radio's energy over [0, horizon] that
// Backup mode saves on a flow of the given length: as the backup the
// radio sees only the SYN at 0 and the FIN at flow, while carrying the
// flow it sees a packet every 20 ms.
func backupSaving(model energy.Model, flow, horizon time.Duration) float64 {
	backup := energy.NewMeter(model)
	backup.OnPacket(0)
	backup.OnPacket(flow)
	active := energy.NewMeter(model)
	for t := time.Duration(0); t <= flow; t += 20 * time.Millisecond {
		active.OnPacket(t)
	}
	return 1 - backup.RadioJoules(horizon)/active.RadioJoules(horizon)
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
