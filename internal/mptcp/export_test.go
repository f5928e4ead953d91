package mptcp

// Hooks that break one rule of AuditPairs each on a finished pair.

// OverDeliver advances the receiving end c past what its peer sent:
// over-delivery.
func OverDeliver(c *Conn) { c.rcvNxt++ }

// UnderCount makes the receiving end c of a gracefully closed pair
// count one byte less than its peer sent: incomplete-delivery.
func UnderCount(c *Conn) { c.recvTotal-- }

// Reopen reopens the sending end c with n bytes more queued that never
// reach the peer (silent-stall), scheduled under no mapping when
// scheduled is set (stranded-mapping as well).
func Reopen(c *Conn, n uint64, scheduled bool) {
	c.closed = false
	c.sendTotal += n
	if scheduled {
		c.dataNxt += n
	}
}

// Unack reopens the sending end c with its last n bytes delivered but
// not data-acked, and covered by no mapping: what a lost last DATA_ACK
// leaves behind.
func Unack(c *Conn, n uint64) {
	c.closed = false
	c.dataUna -= n
}
