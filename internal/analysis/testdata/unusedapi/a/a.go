// Package a is unusedapi's golden package. Every exported name is
// either referenced by non-test code of a or b, exempt, or wanted.
package a

import "io"

func DeadFunc() {} // want `exported func DeadFunc is referenced by no non-test file`

const DeadConst = 1 // want `exported const DeadConst`

var DeadVar = 2 // want `exported var DeadVar`

type DeadType int // want `exported type DeadType`

// Link is used by b; one of its fields is not.
type Link struct {
	base
	Rate float64
	Dead int // want `exported field Dead`
}

func (l *Link) DeadMethod() {} // want `exported method DeadMethod`

// TestOnly is called from a_test.go only, which the loader never loads.
func TestOnly() {} // want `exported func TestOnly`

// OwnPackage is called by a's own code only: not a finding.
func OwnPackage() float64 { return 1 }

func newLink() *Link { return &Link{Rate: OwnPackage()} }

// source declares named results; Gen.Next declares none and is exempt.
type source interface {
	Next() (n int, ok bool)
}

// Gen is referenced by b.
type Gen struct{}

func (Gen) Next() (int, bool) { return 0, false }

// SetRate matches b's unexported rateLink: exempt.
func (Gen) SetRate(mbps float64) {}

// Attach matches b's attacher, which names Link through its import of
// a: exempt.
func (Gen) Attach(l *Link) {}

// Write matches io.Writer, declared in an imported package: exempt.
func (Gen) Write(p []byte) (int, error) { return len(p), nil }

// Box is generic: b references its field and method only through
// Box[int], whose members are instantiations of these.
type Box[T any] struct{ Val T }

func (*Box[T]) Empty() bool { return true }

type base struct{}

// Send is promoted into Link, which satisfies Sender through it: exempt.
func (*base) Send(n int) bool { return n > 0 }

// Sender is referenced by b.
type Sender interface{ Send(int) bool }

//lint:allow unusedapi the golden's proof that an allow suppresses a finding
func Allowed() {}

var _ source = Gen{}

var _ io.Writer = Gen{}

var _ = newLink
