// Package phy models the physical-layer behaviour of the WiFi and LTE
// paths the paper measured: per-location mean rates, RTTs, loss, and a
// stochastic rate process that drives Mahimahi-style delivery-
// opportunity links (the paper's Section 5 emulation method).
//
// This package is the substitution for the paper's physical testbed
// (two tethered phones at 20 US locations, Verizon/Sprint LTE): each
// location is a calibrated profile whose aggregate statistics span the
// same ranges as the paper's Fig. 6 CDFs. All randomness draws from
// named simnet streams, so a given (seed, location) is reproducible.
//
// Radios are instances of registered models (RegisterRadioModel /
// Radio): a model fixes the technology-specific parameters (buffer
// depth, RRC promotion) and a per-instance calibration supplies the
// measured rates. A Condition holds any number of named paths
// (PathSet), so a second LTE carrier or a second AP is just another
// instance; the WiFi/LTE pair fields remain the classic testbed.
package phy

import (
	"math"
	"time"

	"multinet/internal/netem"
	"multinet/internal/simnet"
)

// PathProfile describes one radio path (e.g. the WiFi path at one
// location) in both directions.
type PathProfile struct {
	// DownMbps and UpMbps are the mean link rates.
	DownMbps, UpMbps float64
	// RTTms is the base (unloaded) round-trip time in milliseconds;
	// each direction gets half as propagation delay.
	RTTms float64
	// LossPct is the i.i.d. packet loss probability in percent.
	LossPct float64
	// Variability is the standard deviation of the log-rate AR(1)
	// process (0 = constant-rate link). 0.3 means the instantaneous
	// rate typically wanders within roughly ±30% of the mean.
	Variability float64
	// QueuePkts is the bottleneck buffer in packets (LTE is typically
	// much deeper — bufferbloat).
	QueuePkts int
	// PromotionMs is the radio wake-up (RRC promotion) latency paid by
	// the first uplink packet after PromotionIdle of silence. Cellular
	// radios pay hundreds of milliseconds; WiFi effectively none.
	PromotionMs float64
	// PromotionIdleSecs is the silence needed before the next send pays
	// PromotionMs again (default 10 s when PromotionMs > 0).
	PromotionIdleSecs float64
}

func (p PathProfile) queue() int {
	if p.QueuePkts > 0 {
		return p.QueuePkts
	}
	return netem.DefaultQueueLimit
}

// OWD returns the one-way propagation delay.
func (p PathProfile) OWD() time.Duration {
	return time.Duration(p.RTTms/2*1000) * time.Microsecond
}

// PingRTT draws one ping RTT sample in milliseconds: the base RTT plus
// lognormal jitter scaled by Variability.
func (p PathProfile) PingRTT(rng interface{ NormFloat64() float64 }) float64 {
	jitter := math.Exp(rng.NormFloat64() * p.Variability * 0.5) // median 1
	return p.RTTms * jitter
}

// ARRateSource is a delivery-opportunity source whose instantaneous
// rate follows an AR(1) process in log space, updated every Epoch. It
// is the synthetic stand-in for Mahimahi's recorded packet-delivery
// traces: bursty, time-varying, but with a controlled mean.
//
// Next is a pure function of its argument, as netem.OpportunitySource
// requires: each epoch's slot spacing is drawn once, in epoch order, the
// first time any question reaches that epoch, and remembered, so a
// question about an earlier instant after a later one gets the answer
// it would have got first. The stream is private to the source, so
// drawing epochs ahead of the simulation clock perturbs nobody.
type ARRateSource struct {
	MeanBps float64
	Sigma   float64 // stddev of the stationary log-rate distribution
	Rho     float64 // AR(1) coefficient per epoch
	Epoch   time.Duration

	rng    interface{ NormFloat64() float64 }
	logDev float64 // deviation from log mean in the last epoch drawn
	// gaps[e] is the slot spacing throughout epoch e. The rate only
	// changes at epoch boundaries, so the exponential is evaluated once
	// per epoch, not once per slot; the exported parameters must not
	// change once Next has been called. The list lives on the Sim's slab.
	gaps []time.Duration
	mem  *simnet.Slab[time.Duration]
	// gap caches gaps[e] for the epoch [epochStart, epochEnd) asked about
	// last (an empty interval until the first Next).
	gap                  time.Duration
	epochStart, epochEnd time.Duration
}

// NewARRateSource builds a rate process around meanMbps with the given
// variability (stationary sigma of log rate). rho defaults to 0.9 per
// 100 ms epoch, giving correlation times of about a second, comparable
// to real wireless rate traces.
func NewARRateSource(sim *simnet.Sim, stream string, meanMbps, variability float64) *ARRateSource {
	return &ARRateSource{
		MeanBps: meanMbps * 1e6,
		Sigma:   variability,
		Rho:     0.9,
		Epoch:   100 * time.Millisecond,
		rng:     sim.RNG(stream),
		mem:     simnet.SlabOf[time.Duration](sim),
	}
}

// gapsHorizon is the number of epochs ARRateSource.gaps is first sized
// for: 6.4 s at the default epoch, which covers most transfers of the
// sweeps whole; longer runs double from there.
const gapsHorizon = 64

// slotGap returns the spacing of MTU-sized slots at the rate the current
// deviation gives.
func (s *ARRateSource) slotGap() time.Duration {
	// exp(-Sigma^2/2) corrects the lognormal mean back to MeanBps.
	r := s.MeanBps * math.Exp(s.logDev-s.Sigma*s.Sigma/2)
	if min := s.MeanBps * 0.05; r < min {
		r = min // radios rarely drop to true zero; keep progress
	}
	gap := time.Duration(float64(netem.MTU*8) / r * float64(time.Second))
	if gap <= 0 {
		gap = time.Microsecond
	}
	return gap
}

// seek advances the AR process to the epoch containing t if no question
// has reached it yet, and points the cache at that epoch.
func (s *ARRateSource) seek(t time.Duration) {
	epoch := int(t / s.Epoch)
	// Room for the first gapsHorizon epochs at once (more if the first
	// question already lies beyond them), not a doubling from nil.
	s.gaps = s.mem.Grow(s.gaps, max(gapsHorizon, epoch+1))
	if len(s.gaps) == 0 {
		s.gaps = append(s.gaps, s.slotGap()) // epoch 0: no deviation yet
	}
	for len(s.gaps) <= epoch {
		// Innovation variance chosen so the stationary stddev is Sigma.
		innov := s.Sigma * math.Sqrt(1-s.Rho*s.Rho)
		s.logDev = s.Rho*s.logDev + innov*s.rng.NormFloat64()
		s.gaps = append(s.gaps, s.slotGap())
	}
	s.gap = s.gaps[epoch]
	s.epochStart = time.Duration(epoch) * s.Epoch
	s.epochEnd = s.epochStart + s.Epoch
}

// Next implements netem.OpportunitySource: MTU-sized slots spaced by
// the instantaneous rate of the epoch containing after.
func (s *ARRateSource) Next(after time.Duration) time.Duration {
	if after < s.epochStart || after >= s.epochEnd {
		s.seek(after)
	}
	return after + s.gap
}

// BuildIface constructs a duplex interface for a path profile. With
// Variability == 0 it uses constant-rate links; otherwise trace-style
// VarLinks driven by independent AR rate processes per direction.
func BuildIface(sim *simnet.Sim, name string, p PathProfile) *netem.Iface {
	mk := func(dir string, mbps float64) netem.Link {
		cfg := netem.LinkConfig{
			PropDelay:  p.OWD(),
			QueueLimit: p.queue(),
			LossProb:   p.LossPct / 100,
			RNG:        sim.RNG("phy/loss/" + name + "/" + dir),
		}
		if p.Variability <= 0 {
			return netem.NewFixedLink(sim, mbps, cfg)
		}
		src := NewARRateSource(sim, "phy/rate/"+name+"/"+dir, mbps, p.Variability)
		return netem.NewVarLink(sim, src, cfg)
	}
	up := mk("up", p.UpMbps)
	down := mk("down", p.DownMbps)
	iface := netem.NewIface(sim, name, up, down)
	if p.PromotionMs > 0 {
		idle := p.PromotionIdleSecs
		if idle <= 0 {
			idle = 10
		}
		iface.SetPromotion(
			time.Duration(p.PromotionMs*float64(time.Millisecond)),
			time.Duration(idle*float64(time.Second)))
	}
	return iface
}

// Path is one named radio path of a multi-homed client: the interface
// name the transport layers address it by, plus its calibrated
// profile.
type Path struct {
	Name    string
	Profile PathProfile
}

// Condition is one emulated network condition: the set of radio paths
// a measurement run or a replay sees. The WiFi/LTE pair fields are the
// paper's classic two-path testbed; Paths, when non-empty, describes
// an arbitrary path set (dual-LTE, dual-WLAN, three-path, ...) and
// takes precedence.
type Condition struct {
	Name string
	WiFi PathProfile
	LTE  PathProfile
	// Paths is the general N-path form. Leave empty for the classic
	// {wifi, lte} pair built from the fields above.
	Paths []Path
}

// NewCondition builds an N-path condition. Path order is significant:
// it is the host attachment order, hence the probe order and the
// tie-break preference everywhere above.
func NewCondition(name string, paths ...Path) Condition {
	if len(paths) == 0 {
		panic("phy: NewCondition needs at least one path")
	}
	return Condition{Name: name, Paths: paths}
}

// PathSet returns the condition's paths in attachment order: the
// explicit Paths list, or the classic {wifi, lte} pair.
func (c Condition) PathSet() []Path {
	if len(c.Paths) > 0 {
		return c.Paths
	}
	return []Path{{Name: "wifi", Profile: c.WiFi}, {Name: "lte", Profile: c.LTE}}
}

// BuildHost wires a multi-homed client host with one interface per
// path of the condition.
func BuildHost(sim *simnet.Sim, c Condition) *netem.Host {
	h := netem.NewHost("client")
	for _, p := range c.PathSet() {
		h.Attach(BuildIface(sim, p.Name, p.Profile))
	}
	return h
}
