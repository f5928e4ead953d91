// Energybackup demonstrates the paper's Section 3.6 energy paradox:
// putting LTE in MPTCP backup mode saves almost no energy for flows
// shorter than the LTE radio's 15-second tail, because even the lone
// SYN and FIN keep the radio's high-power tail alive.
//
// It prints the LTE radio's power trace in both roles and the energy
// saved by backup mode as the flow duration grows.
package main

import (
	"fmt"
	"time"

	"multinet/internal/energy"
)

// meters returns the LTE radio's meter in each role of a flow: the
// backup sees only the SYN at t=0 and the FIN at flow end, the active
// radio a packet every 25 ms throughout.
func meters(flow time.Duration) (backup, active *energy.Meter) {
	backup = energy.NewMeter(energy.LTE)
	backup.OnPacket(0)
	backup.OnPacket(flow)
	active = energy.NewMeter(energy.LTE)
	for t := time.Duration(0); t <= flow; t += 25 * time.Millisecond {
		active.OnPacket(t)
	}
	return backup, active
}

func main() {
	fmt.Println("LTE radio power traces (base 1 W; '#' active 3.2 W, '~' tail 2.0 W, '.' idle):")
	fmt.Println()

	const flow = 10 * time.Second
	horizon := flow + 16*time.Second
	backup, active := meters(flow)

	fmt.Printf("  active (carries data): %s  %6.1f J\n", active.TraceString(horizon, 64), active.RadioJoules(horizon))
	fmt.Printf("  backup (SYN/FIN only): %s  %6.1f J\n", backup.TraceString(horizon, 64), backup.RadioJoules(horizon))
	fmt.Printf("\n  10 s flow: backup mode saves only %.0f%% of LTE radio energy\n\n",
		(1-backup.RadioJoules(horizon)/active.RadioJoules(horizon))*100)

	fmt.Println("energy saved by LTE-backup vs flow duration:")
	for _, secs := range []int{2, 5, 10, 15, 30, 60} {
		d := time.Duration(secs) * time.Second
		h := d + 16*time.Second
		b, a := meters(d)
		fmt.Printf("  %3ds flow: %3.0f%% saved\n", secs, (1-b.RadioJoules(h)/a.RadioJoules(h))*100)
	}
	fmt.Println("\n(the paper's fix suggestions: fast dormancy, or break-before-make backup)")
}
