package energy

import "time"

// PowerAt returns the total draw (base + radio) at time t, a reading
// at t.
func (m *Meter) PowerAt(t time.Duration) float64 {
	m.read(t)
	return m.powerAt(t)
}
