package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"multinet/internal/selector"
	"multinet/internal/serve/httpd"
)

// fuzzSeeds are the corpus both targets start from: well-formed
// requests of each shape, and every body a past scanner bug accepted
// (non-finite and out-of-range numbers, a missing comma, a bare word,
// a leading zero, trailing bytes, a raw control byte).
var fuzzSeeds = []string{
	`{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}`,
	`{"site":"cdn","flow_bytes":5242880}`,
	` { "site" : "a\"b\\c\/d" , "flow_bytes" : 0 , "x" : [1] } `,
	`{"site":"s","path":"lte","mbps":-0,"rtt_ms":1E+2,"note":"ok","on":true,"off":false,"none":null}`,
	`{"site":"x","path":"wifi","mbps":1e400,"rtt_ms":25}`,
	`{"site":"x","path":"wifi","mbps":5,"rtt_ms":1e300}`,
	`{"site":"z" "path":"wifi","mbps":5,"rtt_ms":25}`,
	`{"site":"z","path":"wifi","mbps":5,"rtt_ms":25,"x":nonsense}`,
	`{"site":"z","path":"wifi","mbps":01,"rtt_ms":25}`,
	`{"site":"z","path":"wifi","mbps":5,"rtt_ms":25}garbage`,
	"{\"site\":\"z\x01\",\"path\":\"wifi\",\"mbps\":5,\"rtt_ms\":25}",
	`{"site":"z" "flow_bytes":1}`,
	`{"site":"z","flow_bytes":01}`,
	`{"site":"z","flow_bytes":1}}`,
}

// jsonField decodes the raw value of key with encoding/json into v,
// reporting whether the key was present and decoded.
func jsonField(fields map[string]json.RawMessage, key string, v any) bool {
	raw, ok := fields[key]
	return ok && json.Unmarshal(raw, v) == nil
}

// FuzzTelemetryBytes holds the telemetry scanner to encoding/json:
// whenever TelemetryBytes accepts a body, encoding/json accepts it too
// and reads the same site, path, mbps and rtt_ms, and the store holds
// exactly that sample. The scanner may reject what encoding/json
// accepts — escapes outside its subset, out-of-range values — never
// the reverse.
func FuzzTelemetryBytes(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		site, path, mbps, rtt, ok := httpd.ScanTelemetry(bytes.Clone(body))
		s, clk := newTestServer(selector.StoreConfig{Shards: 1})
		if got := s.TelemetryBytes(bytes.Clone(body), &Scratch{}); got != http.StatusNoContent && got != http.StatusBadRequest || ok != (got == http.StatusNoContent) {
			t.Fatalf("%q: TelemetryBytes = %d, scanner ok = %v", body, got, ok)
		}
		if !ok {
			return
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatalf("scanner accepted %q; encoding/json: %v", body, err)
		}
		var want struct {
			site, path  string
			mbps, rttMS float64
		}
		if !jsonField(fields, "site", &want.site) || !jsonField(fields, "path", &want.path) ||
			!jsonField(fields, "mbps", &want.mbps) || !jsonField(fields, "rtt_ms", &want.rttMS) {
			t.Fatalf("scanner accepted %q; encoding/json reads %v", body, fields)
		}
		wantRTT := time.Duration(want.rttMS * float64(time.Millisecond))
		if string(site) != want.site || string(path) != want.path ||
			math.Float64bits(mbps) != math.Float64bits(want.mbps) || rtt != wantRTT {
			t.Fatalf("%q: scanner read %q %q %v %v, encoding/json %q %q %v %v",
				body, site, path, mbps, rtt, want.site, want.path, want.mbps, wantRTT)
		}
		e, found := s.store.Estimate(want.site, clk.at)
		if !found || len(e.Paths) != 1 || e.Paths[0].Name != want.path ||
			math.Float64bits(e.Paths[0].Mbps) != math.Float64bits(want.mbps) || e.Paths[0].RTT != wantRTT {
			t.Fatalf("%q: store holds %v %+v", body, found, e)
		}
	})
}

// FuzzDecideBytes holds the decide scanner to encoding/json: whenever
// DecideBytes accepts a body (404 on the empty store, not 400),
// encoding/json accepts it too and reads the same site and flow_bytes.
func FuzzDecideBytes(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		site, flowBytes, ok := httpd.ScanDecide(bytes.Clone(body))
		s, _ := newTestServer(selector.StoreConfig{Shards: 1})
		if got := s.DecideBytes(bytes.Clone(body), &Scratch{}); got != http.StatusNotFound && got != http.StatusBadRequest || ok != (got == http.StatusNotFound) {
			t.Fatalf("%q: DecideBytes = %d, scanner ok = %v", body, got, ok)
		}
		if !ok {
			return
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatalf("scanner accepted %q; encoding/json: %v", body, err)
		}
		var wantSite string
		var wantFlow int64
		if !jsonField(fields, "site", &wantSite) || !jsonField(fields, "flow_bytes", &wantFlow) {
			t.Fatalf("scanner accepted %q; encoding/json reads %v", body, fields)
		}
		if string(site) != wantSite || int64(flowBytes) != wantFlow {
			t.Fatalf("%q: scanner read %q %d, encoding/json %q %d", body, site, flowBytes, wantSite, wantFlow)
		}
	})
}

// halfClosed is the server's end of a pipe whose client sends left
// bytes and then half-closes: Read reports io.EOF once they are
// consumed, while replies still flow back.
type halfClosed struct {
	net.Conn
	left int
}

func (c *halfClosed) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	n, err := c.Conn.Read(p[:min(len(p), c.left)])
	c.left -= n
	return n, err
}

// FuzzServeConn feeds arbitrary bytes to the connection loop over
// net.Pipe as one client's whole stream and holds the replies to
// net/http: every reply parses as HTTP/1.1 and carries a
// Content-Length its body matches (a 204 carries none, a reply to HEAD
// no body), and a 2xx answers only a request that http.ReadRequest
// accepts, for a route the table serves. The loop stops at the first
// request net/http rejects.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		rawRequest("POST", "/v1/decide", decideBody) +
			rawRequest("POST", "/v1/telemetry", `{"site":"cdn","path":"lte","mbps":9,"rtt_ms":45}`) +
			rawRequest("HEAD", "/v1/stats", "") + "GET /v1/healthz?probe=1 HTTP/1.1\r\nhost: a\r\n\r\n",
		rawRequest("POST", "/v1/decide", decideBody, "Expect: 100-continue"),
		rawRequest("POST", "/v1/decide", "", "Transfer-Encoding: chunked") + "5\r\nhello\r\n0\r\n\r\n",
		rawRequest("POST", "/v1/decide", decideBody, "Content-Length: 35"),
		"GET /v1/healthz HTTP/1.0\r\n\r\n" + rawRequest("GET", "/v1/healthz", ""),
		rawRequest("GET", "/v1/h%65althz", "") + rawRequest("GET", "/v1/healthz", ""),
		"GET /v1/healthz HTTP/1.1\nHost: a\n\n",
		rawRequest("HEAD", "/%zz", ""),
		"GET /v1/stats HTTP/1.1\r\nHost: a\r\nX: \x01\r\n\r\n",
		"\r\nGET / HTTP/1.1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	routes := map[string]bool{"/v1/decide": true, "/v1/telemetry": true, "/v1/stats": true, "/v1/healthz": true}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := warmServer()
		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.ServeConn(&halfClosed{Conn: server, left: len(in)})
		}()
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			client.Write(in) // fails once the loop closes the pipe
		}()
		out, _ := io.ReadAll(client)
		<-served
		client.Close()
		<-sent

		src := bytes.NewReader(in)
		requests := bufio.NewReader(src)
		replies := bufio.NewReader(bytes.NewReader(out))
		for i := 0; ; i++ {
			start := len(in) - src.Len() - requests.Buffered()
			req, rerr := http.ReadRequest(requests)
			if rerr == nil {
				_, rerr = io.Copy(io.Discard, req.Body)
			}
			method := http.MethodGet
			if rerr == nil {
				method = req.Method
			} else if bytes.HasPrefix(in[start:], []byte("HEAD ")) {
				method = http.MethodHead
			}
			if _, err := replies.Peek(1); err == io.EOF {
				return
			}
			resp, err := http.ReadResponse(replies, &http.Request{Method: method})
			for err == nil && resp.StatusCode == http.StatusContinue {
				resp, err = http.ReadResponse(replies, &http.Request{Method: method})
			}
			if err != nil {
				t.Fatalf("reply %d does not parse: %v\nin:  %q\nout: %q", i, err, in, out)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.ProtoMajor != 1 || resp.ProtoMinor != 1 {
				t.Fatalf("reply %d: %s, body error %v\nout: %q", i, resp.Proto, err, out)
			}
			if lengths := resp.Header.Values("Content-Length"); resp.StatusCode == http.StatusNoContent {
				if len(lengths) != 0 || len(body) != 0 {
					t.Fatalf("reply %d: 204 with Content-Length %q, body %q", i, lengths, body)
				}
			} else if len(lengths) != 1 || method == http.MethodHead && len(body) != 0 ||
				method != http.MethodHead && lengths[0] != strconv.Itoa(len(body)) {
				t.Fatalf("reply %d to %s: Content-Length %q, %d body bytes\nout: %q", i, method, lengths, len(body), out)
			}
			if resp.StatusCode/100 == 2 && (rerr != nil || !routes[req.URL.Path]) {
				t.Fatalf("reply %d is %d, but net/http reads the request as %v, %v\nin: %q", i, resp.StatusCode, req, rerr, in)
			}
			if rerr != nil {
				if _, err := replies.Peek(1); err != io.EOF {
					t.Fatalf("replies go on after request %d, which net/http rejects (%v)\nin:  %q\nout: %q", i, rerr, in, out)
				}
				return
			}
		}
	})
}
