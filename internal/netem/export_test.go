package netem

import "time"

// PeriodicOpportunities is an OpportunitySource delivering MTU-sized
// slots at a constant rate, i.e. a CBR link expressed in the
// opportunity model.
type PeriodicOpportunities struct {
	Interval time.Duration
}

// NewPeriodicOpportunities returns a source whose slot rate carries
// rateMbps of MTU-sized packets.
func NewPeriodicOpportunities(rateMbps float64) *PeriodicOpportunities {
	if rateMbps <= 0 {
		panic("netem: rate must be positive")
	}
	perSec := rateMbps * 1e6 / (8 * MTU)
	return &PeriodicOpportunities{Interval: time.Duration(float64(time.Second) / perSec)}
}

// Next implements OpportunitySource.
func (p *PeriodicOpportunities) Next(after time.Duration) time.Duration {
	if p.Interval <= 0 {
		panic("netem: PeriodicOpportunities needs positive interval")
	}
	n := after/p.Interval + 1
	return n * p.Interval
}

// CountPhantomSend makes l count one admitted packet it never held,
// which breaks Host.Audit's link-conservation rule.
func CountPhantomSend(l Link) {
	switch l := l.(type) {
	case *FixedLink:
		l.stats.Sent++
	case *VarLink:
		l.stats.Sent++
	}
}
