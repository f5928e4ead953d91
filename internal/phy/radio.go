package phy

// RadioCalib holds the per-instance calibration of one concrete radio
// (one AP, one carrier): the measured mean rates, base RTT, loss rate,
// and rate variability. A second LTE carrier or a second AP is just
// another calibration, attached under its own path name.
type RadioCalib struct {
	DownMbps, UpMbps float64
	RTTms            float64
	LossPct          float64
	Variability      float64
}

// WiFiRadio is a WiFi radio with calibration c: a shallow AP buffer and
// no wake-up latency.
func WiFiRadio(c RadioCalib) PathProfile {
	return wifi(c.DownMbps, c.UpMbps, c.RTTms, c.LossPct, c.Variability)
}

// LTERadio is an LTE radio with calibration c: the deep eNodeB buffer
// (bufferbloat) and the RRC promotion latency of a cold cellular radio.
func LTERadio(c RadioCalib) PathProfile {
	return lte(c.DownMbps, c.UpMbps, c.RTTms, c.LossPct, c.Variability)
}
