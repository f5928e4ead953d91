package phy

import "fmt"

// Location is one of the paper's 20 MPTCP measurement sites (Table 2),
// with the radio profiles our calibration assigns to it.
type Location struct {
	ID   int
	City string
	Desc string
	WiFi PathProfile
	LTE  PathProfile
}

// Condition converts the location into the paper's two-path emulation
// condition: wifi, then lte.
func (l Location) Condition() Condition {
	return NewCondition(conditionName(l.ID), Path{Name: "wifi", Profile: l.WiFi}, Path{Name: "lte", Profile: l.LTE})
}

// conditionNames holds the table's condition names, formatted once: a
// location's condition costs the one allocation of its path list, and
// the sweeps ask for one per cell.
var conditionNames = func() []string {
	names := make([]string, len(Locations)+1)
	for id := range names {
		names[id] = fmt.Sprintf("loc%02d", id)
	}
	return names
}()

// conditionName names location id's condition ("loc07").
func conditionName(id int) string {
	if id >= 0 && id < len(conditionNames) {
		return conditionNames[id]
	}
	return fmt.Sprintf("loc%02d", id)
}

// wifiQ and lteQ are the bottleneck buffer depths: LTE base stations
// buffer far deeper than WiFi APs (bufferbloat), a well-documented
// property of the paper-era networks.
const (
	wifiQ = 100
	lteQ  = 300
)

func wifi(down, up, rtt, losspct, varb float64) PathProfile {
	return PathProfile{DownMbps: down, UpMbps: up, RTTms: rtt, LossPct: losspct, Variability: varb, QueuePkts: wifiQ}
}

// lteRRCPromotionMs is the LTE IDLE→CONNECTED wake-up latency. ~260 ms
// is the commonly measured paper-era value; it delays the first uplink
// packet (SYN or MP_JOIN) on a cold cellular radio.
const lteRRCPromotionMs = 260

func lte(down, up, rtt, losspct, varb float64) PathProfile {
	return PathProfile{DownMbps: down, UpMbps: up, RTTms: rtt, LossPct: losspct,
		Variability: varb, QueuePkts: lteQ, PromotionMs: lteRRCPromotionMs}
}

// Locations reproduces the paper's Table 2 site list. The rate/RTT
// assignments are our calibration (the paper does not publish
// per-location link statistics): they are chosen so that
//
//   - LTE downlink beats WiFi at 8/20 sites (40%, the paper's headline),
//   - LTE RTT beats WiFi at 4/20 sites (20%, paper Fig. 4),
//   - the spread of Tput(WiFi)-Tput(LTE) spans roughly -15..+20 Mbit/s,
//     matching the support of the paper's Fig. 6 CDFs,
//   - venue descriptions make sense (crowded cafes and malls have poor
//     WiFi; hotel rooms and apartments have good WiFi).
var Locations = []Location{
	{ID: 1, City: "Amherst, MA", Desc: "University Campus, Indoor",
		WiFi: wifi(20, 8, 30, 0.3, 0.20), LTE: lte(8, 3, 65, 0.1, 0.25)},
	{ID: 2, City: "Amherst, MA", Desc: "University Campus, Outdoor",
		WiFi: wifi(3, 1.2, 55, 1.5, 0.40), LTE: lte(12, 6, 60, 0.2, 0.25)},
	{ID: 3, City: "Amherst, MA", Desc: "Cafe, Indoor",
		WiFi: wifi(2.5, 1.0, 55, 1.8, 0.45), LTE: lte(10, 5, 62, 0.2, 0.25)},
	{ID: 4, City: "Amherst, MA", Desc: "Downtown, Outdoor",
		WiFi: wifi(1.5, 0.7, 65, 2.0, 0.50), LTE: lte(9, 4, 70, 0.2, 0.30)},
	{ID: 5, City: "Amherst, MA", Desc: "Apartment, Indoor",
		WiFi: wifi(15, 5, 25, 0.4, 0.15), LTE: lte(6, 2.5, 75, 0.2, 0.30)},
	{ID: 6, City: "Boston, MA", Desc: "Cafe, Indoor",
		WiFi: wifi(8, 3, 45, 0.8, 0.30), LTE: lte(7, 3, 68, 0.2, 0.25)},
	{ID: 7, City: "Boston, MA", Desc: "Shopping Mall, Indoor",
		WiFi: wifi(2, 0.8, 95, 2.2, 0.50), LTE: lte(5, 2, 72, 0.3, 0.30)},
	{ID: 8, City: "Boston, MA", Desc: "Subway, Outdoor",
		WiFi: wifi(1, 0.5, 130, 2.5, 0.55), LTE: lte(4, 1.5, 85, 0.5, 0.40)},
	{ID: 9, City: "Boston, MA", Desc: "Airport, Indoor",
		WiFi: wifi(9, 3.5, 40, 0.7, 0.30), LTE: lte(8, 3.5, 66, 0.2, 0.25)},
	{ID: 10, City: "Boston, MA", Desc: "Apartment, Indoor",
		WiFi: wifi(18, 6, 22, 0.3, 0.15), LTE: lte(7, 3, 70, 0.2, 0.25)},
	{ID: 11, City: "Boston, MA", Desc: "Cafe, Indoor",
		WiFi: wifi(6, 2.5, 50, 0.9, 0.30), LTE: lte(5, 2, 74, 0.2, 0.25)},
	{ID: 12, City: "Boston, MA", Desc: "Downtown, Outdoor",
		WiFi: wifi(2, 1, 60, 1.8, 0.45), LTE: lte(11, 5, 64, 0.2, 0.25)},
	{ID: 13, City: "Boston, MA", Desc: "Store, Indoor",
		WiFi: wifi(6.5, 2.5, 48, 0.8, 0.30), LTE: lte(6, 2.8, 70, 0.2, 0.25)},
	{ID: 14, City: "Santa Barbara, CA", Desc: "Hotel Lobby, Indoor",
		WiFi: wifi(8, 3, 42, 0.7, 0.25), LTE: lte(4, 1.5, 78, 0.3, 0.30)},
	{ID: 15, City: "Santa Barbara, CA", Desc: "Hotel Room, Indoor",
		WiFi: wifi(12, 4, 30, 0.4, 0.20), LTE: lte(3, 1.2, 82, 0.3, 0.30)},
	// Conference WiFi: heavily contended — low rate, standing queues
	// from cross traffic (high base RTT), frequent collisions (loss).
	// This is the representative "LTE much better" site of Figs. 7a,
	// 9 and 11; the paper's own Fig. 9a shows a ~1 s WiFi handshake.
	{ID: 16, City: "Santa Barbara, CA", Desc: "Conference Room, Indoor",
		WiFi: wifi(0.8, 0.4, 250, 6.0, 0.60), LTE: lte(12, 5.5, 60, 0.2, 0.25)},
	{ID: 17, City: "Los Angeles, CA", Desc: "Airport, Indoor",
		WiFi: wifi(2.2, 1, 90, 2.0, 0.50), LTE: lte(10, 4.5, 68, 0.2, 0.25)},
	{ID: 18, City: "Washington, D.C.", Desc: "Hotel Room, Indoor",
		WiFi: wifi(9, 3.5, 35, 0.5, 0.25), LTE: lte(5, 2.2, 76, 0.2, 0.30)},
	{ID: 19, City: "Princeton, NJ", Desc: "Hotel Room, Indoor",
		WiFi: wifi(14, 5, 28, 0.4, 0.20), LTE: lte(6, 2.5, 72, 0.2, 0.25)},
	{ID: 20, City: "Philadelphia, PA", Desc: "Hotel Room, Indoor",
		WiFi: wifi(13, 4.5, 32, 0.5, 0.20), LTE: lte(12, 5, 62, 0.2, 0.25)},
}

// LocationByID returns the location with the given 1-based ID.
func LocationByID(id int) Location {
	for _, l := range Locations {
		if l.ID == id {
			return l
		}
	}
	panic(fmt.Sprintf("phy: no location %d", id))
}

// Representative sites used for the paper's single-location figures.
var (
	// LocLTEMuchBetter has a large LTE advantage (paper Figs. 7a, 9, 11).
	LocLTEMuchBetter = LocationByID(16)
	// LocWiFiBetter has a moderate WiFi advantage with comparable paths
	// (paper Figs. 7b, 10, 12).
	LocWiFiBetter = LocationByID(11)
)

// CouplingStudyLocations are the 7 sites where the paper measured all
// four MPTCP configurations (Section 3.5).
var CouplingStudyLocations = []int{2, 5, 8, 11, 14, 16, 19}
