// Package mahitrace reads and writes Mahimahi packet-delivery traces —
// the file format of the record-and-replay tool the paper's Sections
// 4-5 build on (mahimahi.mit.edu). A trace is a text file with one
// integer per line: the millisecond timestamp of a delivery
// opportunity for one MTU-sized packet. Repeated timestamps mean
// several opportunities in the same millisecond; when the trace ends
// it loops, shifted by its final timestamp (Mahimahi's semantics).
//
// This lets the reproduction exchange link models with real Mahimahi
// deployments: synthetic radio processes can be exported for use with
// mm-link, and recorded cellular traces can drive netem.VarLink.
package mahitrace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"multinet/internal/netem"
)

// Trace is an ordered list of delivery-opportunity instants.
type Trace struct {
	// Opportunities are the delivery instants, non-decreasing.
	Opportunities []time.Duration
	// Period is the loop length; Mahimahi uses the last timestamp.
	Period time.Duration
}

// Parse reads a Mahimahi trace. Lines hold non-negative millisecond
// integers in non-decreasing order; blank lines and '#' comments are
// ignored (a common extension).
//
//lint:allow unusedapi ROADMAP item 3(b)'s mahitrace round trip
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	t := &Trace{}
	line := 0
	var prev int64 = -1
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("mahitrace: line %d: %q is not a millisecond timestamp", line, s)
		}
		if ms < 0 {
			return nil, fmt.Errorf("mahitrace: line %d: negative timestamp %d", line, ms)
		}
		if ms < prev {
			return nil, fmt.Errorf("mahitrace: line %d: timestamps must be non-decreasing (%d after %d)", line, ms, prev)
		}
		prev = ms
		t.Opportunities = append(t.Opportunities, time.Duration(ms)*time.Millisecond)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mahitrace: %w", err)
	}
	if len(t.Opportunities) == 0 {
		return nil, fmt.Errorf("mahitrace: empty trace")
	}
	t.Period = t.Opportunities[len(t.Opportunities)-1]
	if t.Period == 0 {
		// All opportunities at t=0: degenerate but loopable at 1 ms.
		t.Period = time.Millisecond
	}
	return t, nil
}

// Write emits the trace in Mahimahi format (millisecond lines).
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, op := range t.Opportunities {
		if _, err := fmt.Fprintln(bw, op.Milliseconds()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MeanMbps returns the trace's average rate for MTU-sized packets.
func (t *Trace) MeanMbps() float64 {
	if t.Period <= 0 {
		return 0
	}
	bits := float64(len(t.Opportunities)) * netem.MTU * 8
	return bits / t.Period.Seconds() / 1e6
}

// Source returns a looping netem.OpportunitySource over the trace,
// with Mahimahi's wraparound semantics.
//
//lint:allow unusedapi ROADMAP item 3(b)'s mahitrace round trip
func (t *Trace) Source() netem.OpportunitySource {
	return &loopSource{t: t}
}

type loopSource struct {
	t *Trace
}

// Next returns the first opportunity strictly after `after`.
func (l *loopSource) Next(after time.Duration) time.Duration {
	period := l.t.Period
	cycle := after / period
	base := cycle * period
	within := after - base
	ops := l.t.Opportunities
	// First opportunity strictly greater than `within` in this cycle.
	i := sort.Search(len(ops), func(i int) bool { return ops[i] > within })
	for {
		if i < len(ops) {
			return base + ops[i]
		}
		// Wrap into the next cycle.
		base += period
		i = sort.Search(len(ops), func(i int) bool { return ops[i] > 0 })
		if i == len(ops) {
			// Trace has only t=0 entries; deliver at cycle boundaries.
			return base
		}
		if ops[i] > 0 {
			return base + ops[i]
		}
	}
}

// FromSource samples any OpportunitySource for the given duration and
// returns it as a writable Trace — e.g. to export a synthetic phy
// radio process for use with real Mahimahi.
func FromSource(src netem.OpportunitySource, dur time.Duration) *Trace {
	t := &Trace{}
	at := time.Duration(0)
	for {
		at = src.Next(at)
		if at > dur {
			break
		}
		t.Opportunities = append(t.Opportunities, at)
	}
	if len(t.Opportunities) == 0 {
		t.Opportunities = []time.Duration{dur}
	}
	t.Period = t.Opportunities[len(t.Opportunities)-1]
	if t.Period == 0 {
		t.Period = time.Millisecond
	}
	return t
}
