package tcp

// SkewPipe makes c's incremental pipe disagree with its scoreboard,
// which breaks AuditScoreboard's scoreboard-accounting rule.
func SkewPipe(c *Conn) { c.pipeBytes++ }
