// Appreplay records two of the paper's app traffic patterns — the
// short-flow-dominated CNN launch and the long-flow-dominated Dropbox
// click — and replays them under two network conditions with all six
// Section 5 transport configurations, printing the app response times
// (the paper's Figs. 18 and 20 in miniature).
package main

import (
	"fmt"

	"multinet/internal/apps"
	"multinet/internal/phy"
	"multinet/internal/replay"
)

func main() {
	conditions := []phy.Condition{
		phy.LocationByID(10).Condition(), // WiFi much better
		phy.LocationByID(16).Condition(), // LTE much better
	}
	workloads := []apps.App{apps.CNNLaunch, apps.DropboxClick}

	for _, app := range workloads {
		rec := replay.Record(app)
		fmt.Printf("%s %s — %s, %d connections, %d KB total\n",
			app.Name, app.Interaction, app.Label(), len(app.Flows), app.TotalBytes()>>10)
		for ci, cond := range conditions {
			fmt.Printf("  condition %s (WiFi %.1f / LTE %.1f Mbit/s):\n",
				cond.Name, cond.WiFi.DownMbps, cond.LTE.DownMbps)
			for _, tc := range replay.Configs(replay.WiFiLTEPaths()) {
				r := replay.Run(int64(1000+ci), cond, rec, tc)
				if !r.Completed {
					fmt.Printf("    %-22s did not complete\n", tc.Name)
					continue
				}
				fmt.Printf("    %-22s %6.2fs\n", tc.Name, r.ResponseTime.Seconds())
			}
		}
		fmt.Println()
	}
}
