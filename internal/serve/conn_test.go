package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"multinet/internal/selector"
	"multinet/internal/serve/httpd"
)

// warmServer is a test server whose site "cdn" has fresh wifi and lte
// estimates, so a 5 MB decide on it answers 200 with MPTCP.
func warmServer() *Server {
	s, _ := newTestServer(selector.StoreConfig{})
	sc := s.GetScratch()
	defer s.PutScratch(sc)
	s.TelemetryBytes([]byte(`{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}`), sc)
	s.TelemetryBytes([]byte(`{"site":"cdn","path":"lte","mbps":10,"rtt_ms":45}`), sc)
	return s.Server
}

// startLoop serves s on a loopback listener and returns its address;
// the returned channel yields what Serve returned.
func startLoop(t *testing.T, s *Server) (string, <-chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return l.Addr().String(), served
}

// dial opens a client connection with a deadline that bounds the test.
func dial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(5 * time.Second))
	return c, bufio.NewReader(c)
}

func send(t *testing.T, c net.Conn, raw string) {
	t.Helper()
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
}

// readReply reads one reply to a request made with method.
func readReply(t *testing.T, br *bufio.Reader, method string) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading reply body: %v", err)
	}
	return resp, string(body)
}

// wantClosed checks that the server has closed the connection.
func wantClosed(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if b, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open: read %q, %v", b, err)
	}
}

func rawRequest(method, path, body string, headers ...string) string {
	var b strings.Builder
	b.WriteString(method + " " + path + " HTTP/1.1\r\nHost: test\r\n")
	for _, h := range headers {
		b.WriteString(h + "\r\n")
	}
	if body != "" {
		b.WriteString("Content-Length: " + strconv.Itoa(len(body)) + "\r\n")
	}
	return b.String() + "\r\n" + body
}

const decideBody = `{"site":"cdn","flow_bytes":5242880}`

func TestConnPipelinedInOrder(t *testing.T) {
	addr, _ := startLoop(t, warmServer())
	c, br := dial(t, addr)
	send(t, c, rawRequest("POST", "/v1/decide", decideBody)+
		rawRequest("POST", "/v1/telemetry", `{"site":"cdn","path":"wifi","mbps":12,"rtt_ms":25}`)+
		rawRequest("POST", "/v1/decide", `{"site":"ghost","flow_bytes":1}`)+
		rawRequest("GET", "/v1/stats", ""))
	for _, want := range []struct {
		status int
		body   string
	}{
		{200, `"use_mptcp":true`},
		{204, ""},
		{404, `"unknown site"`},
		{200, `"decides":1,"telemetry":3,"unknown_site":1`},
	} {
		resp, body := readReply(t, br, "POST")
		if resp.StatusCode != want.status || !strings.Contains(body, want.body) || resp.Close {
			t.Fatalf("reply %d %q (close %v), want %d containing %q", resp.StatusCode, body, resp.Close, want.status, want.body)
		}
	}
}

// TestConnRefusals: every request outside the accepted subset, and
// every request that asks for it, gets its status and a closed
// connection.
func TestConnRefusals(t *testing.T) {
	big := "X-Pad: " + strings.Repeat("a", 4<<10) + "\r\n" // the loop reads 4 KB header blocks
	for _, tc := range []struct {
		name, raw string
		status    int
		allow     string
	}{
		{"http/1.0", "GET /v1/healthz HTTP/1.0\r\n\r\n", 200, ""},
		{"connection close", rawRequest("GET", "/v1/healthz", "", "Connection: keep-alive, Close"), 200, ""},
		{"chunked", rawRequest("POST", "/v1/decide", "", "Transfer-Encoding: chunked") + "5\r\nhello\r\n0\r\n\r\n", 501, ""},
		{"duplicate length", rawRequest("POST", "/v1/decide", decideBody, "Content-Length: 35"), 400, ""},
		{"conflicting length", rawRequest("POST", "/v1/decide", decideBody, "Content-Length: 3"), 400, ""},
		{"malformed length", "POST /v1/decide HTTP/1.1\r\nHost: t\r\nContent-Length: +35\r\n\r\n" + decideBody, 400, ""},
		{"body too large", "POST /v1/decide HTTP/1.1\r\nHost: t\r\nContent-Length: 16385\r\n\r\n", 400, ""},
		{"header block too large", "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n" + big + "\r\n", 431, ""},
		{"folded header", "GET /v1/healthz HTTP/1.1\r\nHost: t\r\nX-A: 1\r\n 2\r\n\r\n", 400, ""},
		{"space before colon", "GET /v1/healthz HTTP/1.1\r\nHost : t\r\n\r\n", 400, ""},
		{"no host", "GET /v1/healthz HTTP/1.1\r\n\r\n", 400, ""},
		{"two hosts", rawRequest("GET", "/v1/healthz", "", "Host: u"), 400, ""},
		{"http/2", "GET /v1/healthz HTTP/2.0\r\nHost: t\r\n\r\n", 505, ""},
		{"unknown path", rawRequest("GET", "/v1/nope", ""), 404, ""},
		{"wrong method", rawRequest("GET", "/v1/decide", ""), 405, "POST"},
		{"wrong method on a GET route", rawRequest("POST", "/v1/stats", "{}"), 405, "GET, HEAD"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, _ := startLoop(t, warmServer())
			c, br := dial(t, addr)
			send(t, c, tc.raw+rawRequest("GET", "/v1/healthz", ""))
			resp, _ := readReply(t, br, "GET")
			if resp.StatusCode != tc.status || resp.Header.Get("Allow") != tc.allow || !resp.Close {
				t.Fatalf("reply %d, Allow %q, close %v; want %d, Allow %q, close",
					resp.StatusCode, resp.Header.Get("Allow"), resp.Close, tc.status, tc.allow)
			}
			wantClosed(t, br)
		})
	}
}

func TestConnExpectContinue(t *testing.T) {
	addr, _ := startLoop(t, warmServer())
	c, br := dial(t, addr)
	raw := rawRequest("POST", "/v1/decide", decideBody, "Expect: 100-continue")
	send(t, c, strings.TrimSuffix(raw, decideBody))
	if resp, _ := readReply(t, br, "POST"); resp.StatusCode != http.StatusContinue {
		t.Fatalf("interim reply %d, want 100", resp.StatusCode)
	}
	send(t, c, decideBody)
	if resp, body := readReply(t, br, "POST"); resp.StatusCode != 200 || !strings.Contains(body, `"use_mptcp":true`) {
		t.Fatalf("reply %d %q", resp.StatusCode, body)
	}
}

// TestConnHead: HEAD on the two GET routes answers GET's headers and no
// body, and the connection carries on.
func TestConnHead(t *testing.T) {
	addr, _ := startLoop(t, warmServer())
	c, br := dial(t, addr)
	for _, path := range []string{"/v1/healthz", "/v1/stats"} {
		send(t, c, rawRequest("HEAD", path, "")+rawRequest("GET", path, ""))
		head, body := readReply(t, br, "HEAD")
		get, getBody := readReply(t, br, "GET")
		if head.StatusCode != 200 || body != "" || head.ContentLength != int64(len(getBody)) ||
			head.Header.Get("Content-Type") != "application/json" || get.StatusCode != 200 {
			t.Fatalf("HEAD %s: %d, length %d, body %q; GET %d %q", path, head.StatusCode, head.ContentLength, body, get.StatusCode, getBody)
		}
	}
}

// TestBadBodyCounted: a body too large or cut short is answered 400 and
// counted as a bad request, through the loop and through the adapter.
func TestBadBodyCounted(t *testing.T) {
	s := warmServer()
	addr, _ := startLoop(t, s)
	c, br := dial(t, addr)
	send(t, c, "POST /v1/decide HTTP/1.1\r\nHost: t\r\nContent-Length: 16385\r\n\r\n")
	if resp, body := readReply(t, br, "POST"); resp.StatusCode != 400 || body != `{"error":"bad request"}`+"\n" {
		t.Fatalf("too large: %d %q", resp.StatusCode, body)
	}
	c, br = dial(t, addr)
	send(t, c, "POST /v1/decide HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\n\r\n{\"si")
	c.(*net.TCPConn).CloseWrite()
	if resp, _ := readReply(t, br, "POST"); resp.StatusCode != 400 {
		t.Fatalf("cut short: %d", resp.StatusCode)
	}
	if st := s.StatsSnapshot(); st.BadRequests != 2 {
		t.Fatalf("loop: bad_requests = %d, want 2", st.BadRequests)
	}

	h := s.Handler()
	if w := post(t, h, "/v1/decide", strings.Repeat(" ", httpd.MaxBody+1)); w.Code != 400 {
		t.Fatalf("adapter, too large: %d", w.Code)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/decide", io.MultiReader(strings.NewReader("{"), failingReader{})))
	if w.Code != 400 {
		t.Fatalf("adapter, unreadable: %d", w.Code)
	}
	if st := s.StatsSnapshot(); st.BadRequests != 4 {
		t.Fatalf("adapter: bad_requests = %d, want 4", st.BadRequests)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// deadlineConn is a scripted client connection that records every
// deadline the loop sets, as the time left until it.
type deadlineConn struct {
	in       *strings.Reader
	out      bytes.Buffer
	set      []string
	net.Conn // nil: the loop calls no other method
}

func (c *deadlineConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *deadlineConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *deadlineConn) Close() error                { return nil }
func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.set = append(c.set, "read "+time.Until(t).Round(time.Second).String())
	return nil
}
func (c *deadlineConn) SetWriteDeadline(t time.Time) error {
	c.set = append(c.set, "write "+time.Until(t).Round(time.Second).String())
	return nil
}

// TestConnDeadlinesEveryRequest: the four bounds are set afresh for
// every request, in the order the request meets them.
func TestConnDeadlinesEveryRequest(t *testing.T) {
	s := warmServer()
	dc := &deadlineConn{in: strings.NewReader(rawRequest("POST", "/v1/decide", decideBody) + rawRequest("GET", "/v1/healthz", ""))}
	s.ServeConn(dc)
	perRequest := []string{"read 1m0s", "read 5s", "write 10s", "read 10s"}
	want := append(append(append([]string{}, perRequest...), perRequest...), "read 1m0s")
	if strings.Join(dc.set, ", ") != strings.Join(want, ", ") {
		t.Fatalf("deadlines set: %v\nwant %v", dc.set, want)
	}
	if n := strings.Count(dc.out.String(), "HTTP/1.1 200 OK"); n != 2 {
		t.Fatalf("%d replies of 200, want 2:\n%s", n, dc.out.String())
	}
}

// TestShutdown: Shutdown closes an idle keep-alive connection at once,
// lets a request in flight finish (its reply says Connection: close)
// and returns when no connection is left; Serve returns
// ErrServerClosed as soon as the listener is closed.
func TestShutdown(t *testing.T) {
	s := warmServer()
	addr, served := startLoop(t, s)

	idle, idleBR := dial(t, addr)
	send(t, idle, rawRequest("GET", "/v1/healthz", ""))
	if resp, _ := readReply(t, idleBR, "GET"); resp.StatusCode != 200 {
		t.Fatalf("healthz %d", resp.StatusCode)
	}

	// The 100 Continue shows the server is inside this request.
	busy, busyBR := dial(t, addr)
	send(t, busy, strings.TrimSuffix(rawRequest("POST", "/v1/decide", decideBody, "Expect: 100-continue"), decideBody))
	if resp, _ := readReply(t, busyBR, "POST"); resp.StatusCode != http.StatusContinue {
		t.Fatalf("interim reply %d", resp.StatusCode)
	}

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	wantClosed(t, idleBR)
	if err := <-served; !errors.Is(err, httpd.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	default:
	}

	send(t, busy, decideBody)
	resp, body := readReply(t, busyBR, "POST")
	if resp.StatusCode != 200 || !strings.Contains(body, `"use_mptcp":true`) || !resp.Close {
		t.Fatalf("in-flight reply %d %q, close %v", resp.StatusCode, body, resp.Close)
	}
	wantClosed(t, busyBR)
	busy.Close()
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
