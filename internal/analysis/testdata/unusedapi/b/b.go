// Package b uses a: its references count, and its interfaces exempt
// a's methods.
package b

import "multinet/internal/analysis/testdata/unusedapi/a"

// rateLink is unexported and declared outside a.
type rateLink interface{ SetRate(mbps float64) }

type attacher interface{ Attach(*a.Link) }

func use(s a.Sender, g a.Gen) float64 {
	var l a.Link
	s.Send(1)
	var r rateLink
	var at attacher
	_, _ = r, at
	_ = g
	var box a.Box[int]
	_ = box.Empty()
	return l.Rate + float64(box.Val)
}

var _ = use
