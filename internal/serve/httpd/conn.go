package httpd

// The connection loop: the service's own HTTP/1.1 server. Under
// net/http every request paid for a background-read goroutine started
// and stopped around it, header maps and a response writer, several
// times what the decide itself costs; the two request shapes are tiny
// and fixed, so the loop frames them itself and answers through the
// same route table (Respond) as the net/http adapter.
//
// Accepted subset: HTTP/1.0 and HTTP/1.1 requests whose header block,
// request line included, fits the 4 KB reader, and whose body, if any,
// is framed by one Content-Length of at most MaxBody bytes. A request
// the loop cannot frame safely is refused with an empty reply and the
// connection closed: a header block larger than the reader (431),
// Transfer-Encoding of any kind (501), a version other than 1.0 and
// 1.1 (505), and 400 for a malformed request line, a header line that
// is not a token name, a colon and visible value bytes (obsolete line
// folding included), a duplicate or malformed Content-Length, or a
// missing or repeated Host on HTTP/1.1. A body longer than MaxBody or
// cut short is answered 400 and closes the connection too. HTTP/1.0,
// `Connection: close`, a path outside the route table and a method its
// route does not take close the connection after their reply; every
// other request leaves it open for the next one, pipelined or not.
// `Expect: 100-continue` on HTTP/1.1 gets `100 Continue` before the
// body is read, and HEAD is answered as GET without the body.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrServerClosed is what Serve returns once Shutdown has begun.
var ErrServerClosed = errors.New("httpd: Server closed")

// The bounds net/http applied as cmd/serve configured it. A request's
// header block must arrive within headerTimeout of its first byte and
// the whole request within requestTimeout; the reply must be written
// within replyTimeout of the end of the header block; a kept
// connection waits idleTimeout for the next request.
const (
	headerTimeout  = 5 * time.Second
	requestTimeout = 10 * time.Second
	replyTimeout   = 10 * time.Second
	idleTimeout    = 60 * time.Second
)

// lingerTimeout bounds how long a connection the server closes keeps
// reading after its last reply (net/http waits as long): closing a
// socket with unread bytes in it resets the connection, which can
// destroy the reply before the client reads it.
const lingerTimeout = 500 * time.Millisecond

// readerSize is the connection's read buffer, and so the largest
// header block it accepts.
const readerSize = 4 << 10

// A connection is idle while it waits for a request's first byte and
// active until the reply is written. Shutdown closes only an idle one;
// whichever side swaps the state first owns the connection.
const (
	connIdle int32 = iota
	connActive
	connClosed
)

var continueReply = []byte("HTTP/1.1 100 Continue\r\n\r\n")

// conn is one client connection and the buffers its loop reuses.
type conn struct {
	nc    net.Conn
	br    *bufio.Reader
	state atomic.Int32
	// line holds the request's method and path, copied out of br
	// before the body is read over them.
	line []byte
	// out is the reply being written.
	out []byte
	// date is the Date header, rendered once a second.
	date    []byte
	dateSec int64
}

// Serve accepts connections on l and answers each on its own goroutine
// until Shutdown, when it returns ErrServerClosed; it always closes l.
// An Accept that fails on an open listener (out of file descriptors,
// say) is retried after a pause that doubles from 5 ms up to 1 s.
func (s *Server) Serve(l net.Listener) error {
	defer l.Close()
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	var pause time.Duration
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			time.Sleep(pause)
			continue
		}
		pause = 0
		c := s.track(nc)
		if c == nil {
			return ErrServerClosed
		}
		go s.serveConn(c)
	}
}

// ServeConn answers requests on nc until the client closes it, a bound
// expires, a reply closes it or Shutdown does, as Serve answers an
// accepted connection; it always closes nc.
//
//lint:allow unusedapi internal/serve's FuzzServeConn and conn tests, until ROADMAP item 15 merges the packages
func (s *Server) ServeConn(nc net.Conn) {
	if c := s.track(nc); c != nil {
		s.serveConn(c)
	}
}

// Shutdown stops the server gracefully. It marks it draining, closes
// its listeners, closes every idle connection at once and every other
// one after the reply it is writing, and returns once none is left, or
// with ctx's error if ctx ends first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	s.closing.Store(true)
	var err error
	for _, l := range s.listeners {
		if cerr := l.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) && err == nil {
			err = cerr
		}
	}
	s.listeners = nil
	s.mu.Unlock()
	for pause := time.Millisecond; !s.closeIdle(); pause = min(2*pause, 100*time.Millisecond) {
		t := time.NewTimer(pause)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	return err
}

// closeIdle closes every idle connection and reports whether none is
// left.
func (s *Server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			c.nc.Close()
		}
	}
	return len(s.conns) == 0
}

// track registers a new connection, or closes it and returns nil once
// Shutdown has begun.
func (s *Server) track(nc net.Conn) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		nc.Close()
		return nil
	}
	c := &conn{nc: nc, br: bufio.NewReaderSize(nc, readerSize)}
	if s.conns == nil {
		s.conns = make(map[*conn]struct{})
	}
	s.conns[c] = struct{}{}
	return c
}

// serveConn answers requests on c until the client closes it, a bound
// expires, a reply closes it or Shutdown does.
func (s *Server) serveConn(c *conn) {
	defer func() {
		c.nc.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	for {
		c.nc.SetReadDeadline(time.Now().Add(idleTimeout))
		if _, err := c.br.Peek(1); err != nil || !c.state.CompareAndSwap(connIdle, connActive) {
			return
		}
		if !s.serveRequest(c) {
			c.linger()
			return
		}
		// Storing idle before reading closing means that a concurrent
		// Shutdown either is seen here or sees the connection idle.
		c.state.Store(connIdle)
		if s.closing.Load() {
			return
		}
	}
}

// serveRequest reads one request from c and writes its reply. It
// reports whether the connection may carry another request.
func (s *Server) serveRequest(c *conn) bool {
	start := time.Now()
	c.nc.SetReadDeadline(start.Add(headerTimeout))
	head, err := readHead(c.br)
	if err != nil && err != bufio.ErrBufferFull {
		return false
	}
	now := time.Now()
	c.nc.SetWriteDeadline(now.Add(replyTimeout))
	if err != nil {
		c.write(statusRequestHeaderFieldsTooLarge, "", nil, false, true, now)
		return false
	}
	req, status := parseHead(head)
	if status != 0 {
		if status == statusBadRequest {
			s.badRequests.Add(1)
		}
		c.write(status, "", nil, false, true, now)
		return false
	}
	c.line = append(append(c.line[:0], req.method...), req.path...)
	method, path := c.line[:len(req.method)], c.line[len(req.method):]
	c.br.Discard(len(head))
	c.nc.SetReadDeadline(start.Add(requestTimeout))

	sc := s.GetScratch()
	defer s.PutScratch(sc)
	var rep Reply
	if c.readBody(req, sc) {
		rep = s.Respond(method, path, sc.In, sc)
	} else {
		rep = s.BadBody(sc)
	}
	keep := rep.Keep && !req.close && !s.closing.Load()
	err = c.write(rep.Status, rep.Allow, sc.Out, string(method) == "HEAD", !keep, now)
	return keep && err == nil
}

// linger half-closes the connection and discards what the client still
// sends until it closes its side or lingerTimeout passes.
func (c *conn) linger() {
	cw, ok := c.nc.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil {
		return
	}
	c.nc.SetReadDeadline(time.Now().Add(lingerTimeout))
	io.Copy(io.Discard, c.br)
}

// readBody reads the request's body into sc.In. It fails on a body
// longer than MaxBody, which it leaves unread, and on one cut short.
func (c *conn) readBody(req request, sc *Scratch) bool {
	if req.length > MaxBody {
		return false
	}
	if req.expect && req.length > 0 {
		if _, err := c.nc.Write(continueReply); err != nil {
			return false
		}
	}
	sc.In = slices.Grow(sc.In[:0], req.length)[:req.length]
	_, err := io.ReadFull(c.br, sc.In)
	return err == nil
}

// write sends one reply in a single Write: the status line, Date,
// Content-Type and Content-Length (neither on a 204), Allow when set
// and Connection: close when closing, then body unless omitBody.
func (c *conn) write(status int, allow string, body []byte, omitBody, closing bool, now time.Time) error {
	if sec := now.Unix(); c.date == nil || sec != c.dateSec {
		c.date, c.dateSec = now.UTC().AppendFormat(c.date[:0], timeFormat), sec
	}
	b := append(c.out[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, statusText(status)...)
	b = append(b, "\r\nDate: "...)
	b = append(b, c.date...)
	if status != statusNoContent {
		if len(body) > 0 {
			b = append(b, "\r\nContent-Type: application/json"...)
		}
		b = append(b, "\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	if allow != "" {
		b = append(b, "\r\nAllow: "...)
		b = append(b, allow...)
	}
	if closing {
		b = append(b, "\r\nConnection: close"...)
	}
	b = append(b, "\r\n\r\n"...)
	if !omitBody {
		b = append(b, body...)
	}
	c.out = b
	_, err := c.nc.Write(b)
	return err
}

// readHead returns the request's header block, request line through
// blank line, without consuming it. It fails with bufio.ErrBufferFull
// when the block does not fit the reader.
func readHead(br *bufio.Reader) ([]byte, error) {
	for from := 0; ; { // from: the first byte of the line not yet ended
		buf, _ := br.Peek(br.Buffered())
		for {
			i := bytes.IndexByte(buf[from:], '\n')
			if i < 0 {
				break
			}
			end := from + i + 1
			if line := buf[from:end]; len(line) == 1 || len(line) == 2 && line[0] == '\r' {
				return buf[:end], nil
			}
			from = end
		}
		if len(buf) == br.Size() {
			return nil, bufio.ErrBufferFull
		}
		if _, err := br.Peek(len(buf) + 1); err != nil {
			return nil, err
		}
	}
}

// request is what the loop needs from a header block.
type request struct {
	method, path []byte // path without the query
	// length is the Content-Length, 0 when absent; any value above
	// MaxBody reads as MaxBody+1.
	length int
	close  bool // HTTP/1.0 or Connection: close
	expect bool // Expect: 100-continue on HTTP/1.1
}

// parseHead parses a header block. A nonzero status refuses the
// request: the loop answers it and closes the connection.
func parseHead(head []byte) (req request, status int) {
	line, rest := cutLine(head)
	method, target, ok1 := cut(line, ' ')
	target, proto, ok2 := cut(target, ' ')
	if !ok1 || !ok2 || !isToken(method) || len(target) == 0 || hasCTL(target) {
		return req, statusBadRequest
	}
	v11 := string(proto) == "HTTP/1.1"
	if !v11 && string(proto) != "HTTP/1.0" {
		if bytes.HasPrefix(proto, []byte("HTTP/")) {
			return req, statusHTTPVersionNotSupported
		}
		return req, statusBadRequest
	}
	req.method, req.close = method, !v11
	req.path, _, _ = cut(target, '?')
	hosts, lengths := 0, 0
	for {
		line, rest = cutLine(rest)
		if len(line) == 0 {
			break
		}
		name, value, ok := cut(line, ':')
		if !ok || !isToken(name) || !isFieldValue(value) {
			return req, statusBadRequest
		}
		value = bytes.Trim(value, " \t")
		switch {
		case equalFold(name, "Content-Length"):
			lengths++
			if req.length, ok = parseLength(value); !ok || lengths > 1 {
				return req, statusBadRequest
			}
		case equalFold(name, "Transfer-Encoding"):
			return req, statusNotImplemented
		case equalFold(name, "Host"):
			hosts++
		case equalFold(name, "Connection"):
			req.close = req.close || hasToken(value, "close")
		case equalFold(name, "Expect"):
			req.expect = v11 && equalFold(value, "100-continue")
		}
	}
	if hosts > 1 || v11 && hosts == 0 {
		return req, statusBadRequest
	}
	return req, 0
}

// cutLine splits b after its first line, dropping the line's LF or
// CRLF.
func cutLine(b []byte) (line, rest []byte) {
	line, rest, _ = cut(b, '\n')
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
}

// cut is bytes.Cut around a single byte.
func cut(b []byte, sep byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

// isToken reports whether b is an HTTP token (RFC 9110 §5.6.2).
func isToken(b []byte) bool {
	for _, c := range b {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return len(b) > 0
}

// isFieldValue reports whether b holds only field-value bytes:
// visible ASCII, space, tab and obs-text.
func isFieldValue(b []byte) bool {
	for _, c := range b {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// hasCTL reports whether b holds an ASCII control byte.
func hasCTL(b []byte) bool {
	for _, c := range b {
		if c < ' ' || c == 0x7f {
			return true
		}
	}
	return false
}

// parseLength parses a Content-Length: one or more digits.
func parseLength(v []byte) (int, bool) {
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = min(n*10+int(c-'0'), MaxBody+1)
	}
	return n, len(v) > 0
}

// hasToken reports whether the comma-separated list v holds tok,
// ignoring case.
func hasToken(v []byte, tok string) bool {
	for len(v) > 0 {
		var item []byte
		item, v, _ = cut(v, ',')
		if equalFold(bytes.Trim(item, " \t"), tok) {
			return true
		}
	}
	return false
}

// equalFold reports whether b and s are equal ignoring ASCII case.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if lower(b[i]) != lower(s[i]) {
			return false
		}
	}
	return true
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
