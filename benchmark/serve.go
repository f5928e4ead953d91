package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The serve workloads drive the built cmd/serve binary over loopback
// TCP. The load is a closed loop: each connection sends its next
// request only when the previous reply is complete, as a caller that
// waits for a decision before starting its flow does.

// flowBytes is the flow size every decide asks about: long enough that
// the policy answers MPTCP over two comparable paths.
const flowBytes = 5 << 20

// Seeded telemetry stays inside these ranges, so wifi always ranks
// first and the pair stays within the disparity gate: the expected
// decision is fixed whatever the seed.
const (
	wifiLoMbps, wifiHiMbps = 11.0, 13.0
	lteLoMbps, lteHiMbps   = 9.0, 10.5
)

var (
	wantMPTCP = []byte(`"use_mptcp":true`)
	wantPaths = []byte(`"paths":["wifi","lte"]`)
)

// serveCounts are the HTTP-layer counters of one pass.
type serveCounts struct {
	status2xx, status4xx, status5xx int
	maxUS                           float64
}

func (c *serveCounts) add(o serveCounts) {
	c.status2xx += o.status2xx
	c.status4xx += o.status4xx
	c.status5xx += o.status5xx
	c.maxUS = max(c.maxUS, o.maxUS)
}

// server is a running cmd/serve subprocess.
type server struct {
	cmd  *exec.Cmd
	addr string
	// Requests sent since start, to check /v1/stats against.
	decides, telemetry int
}

// buildServe compiles cmd/serve into benchmark/out and returns the
// binary's path.
func buildServe(cfg config) (string, error) {
	dir := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "serve-"+strconv.Itoa(selfPID))
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/serve: %w\n%s", err, out)
	}
	return bin, nil
}

// startServe runs the binary on a free loopback port and waits until
// it answers /v1/healthz.
func startServe(bin string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-drain-grace", "0")
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cmd/serve: %w", err)
	}
	s := &server{cmd: cmd, addr: addr}
	health := appendRequest(nil, "GET", "/v1/healthz", nil)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if hc, err := dialHTTP(addr); err == nil {
			status, _, err := hc.do(health)
			hc.close()
			if err == nil && status == 200 {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("cmd/serve did not become healthy on %s", addr)
		}
	}
}

// stop ends the server: SIGTERM, then kill if it has not exited within
// three seconds. It always reaps the process.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// serverStats is the body of GET /v1/stats.
type serverStats struct {
	Decides     int `json:"decides"`
	Telemetry   int `json:"telemetry"`
	UnknownSite int `json:"unknown_site"`
	BadRequests int `json:"bad_requests"`
	Sites       int `json:"sites"`
}

// check compares /v1/stats with what the request plan implies and
// returns the number of counters that disagree.
func (s *server) check(wantSites int) (failed int, err error) {
	hc, err := dialHTTP(s.addr)
	if err != nil {
		return 0, err
	}
	defer hc.close()
	status, body, err := hc.do(appendRequest(nil, "GET", "/v1/stats", nil))
	if err != nil || status != 200 {
		return 0, fmt.Errorf("GET /v1/stats: status %d: %v", status, err)
	}
	var st serverStats
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("GET /v1/stats: %w", err)
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"bad_requests", st.BadRequests, 0}, {"unknown_site", st.UnknownSite, 0},
		{"sites", st.Sites, wantSites}, {"decides", st.Decides, s.decides}, {"telemetry", st.Telemetry, s.telemetry},
	} {
		if c.got != c.want {
			fmt.Fprintf(os.Stderr, "benchmark: /v1/stats %s = %d, want %d\n", c.name, c.got, c.want)
			failed++
		}
	}
	return failed, nil
}

// httpConn is one keep-alive HTTP/1.1 connection driven by hand: the
// requests are pre-rendered bytes and the reply parser reads only what
// the checks need, so the generator's own cost stays small beside the
// server's on the cores they share.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	// One deadline for the connection's whole life: a block lasts
	// seconds, and a hung server must fail the run, not hang it.
	c.SetDeadline(time.Now().Add(2 * time.Minute))
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 4096)}, nil
}

func (h *httpConn) close() { h.c.Close() }

func appendRequest(dst []byte, method, path string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\n"...)
	if body != nil {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

var contentLength = []byte("Content-Length:")

// do sends one request and reads its reply. The returned body is valid
// until the next call.
func (h *httpConn) do(req []byte) (status int, body []byte, err error) {
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("status line %q: %w", line, err)
	}
	n := 0
	for {
		if line, err = h.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if bytes.HasPrefix(line, contentLength) {
			if n, err = strconv.Atoi(string(bytes.TrimSpace(line[len(contentLength):]))); err != nil {
				return 0, nil, fmt.Errorf("header %q: %w", line, err)
			}
		}
	}
	if cap(h.body) < n {
		h.body = make([]byte, n)
	}
	h.body = h.body[:n]
	if _, err := io.ReadFull(h.br, h.body); err != nil {
		return 0, nil, err
	}
	return status, h.body, nil
}

// planFn renders request i of a block into body and says where it
// goes; a decide's reply must be 200 with the fixed decision, a
// telemetry sample's 204.
type planFn func(w, i int, body []byte) (path string, b []byte, decide bool)

// runBlock sends n requests over conns keep-alive connections and
// checks every reply. Worker w sends the requests i ≡ w (mod conns),
// so the set of requests does not depend on timing.
func runBlock(addr string, conns, n int, plan planFn, rec *recorder) (passStats, error) {
	type workerOut struct {
		lat    []float64
		counts serveCounts
		failed int
		err    error
	}
	outs := make([]workerOut, conns)
	hcs := make([]*httpConn, conns)
	for w := range hcs {
		hc, err := dialHTTP(addr)
		if err != nil {
			return passStats{}, err
		}
		defer hc.close()
		hcs[w] = hc
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			out.lat = make([]float64, 0, n/conns+1)
			var body, raw []byte
			for i := w; i < n; i += conns {
				path, b, decide := plan(w, i, body[:0])
				body = b
				raw = appendRequest(raw[:0], "POST", path, body)
				sp := rec.begin(rec.op(), 0, "serve", "request")
				start := time.Now()
				status, reply, err := hcs[w].do(raw)
				us := float64(time.Since(start).Nanoseconds()) / 1e3
				sp.end()
				if err != nil {
					out.err = err
					return
				}
				out.lat = append(out.lat, us)
				out.counts.maxUS = max(out.counts.maxUS, us)
				switch {
				case status < 300:
					out.counts.status2xx++
				case status < 500:
					out.counts.status4xx++
				default:
					out.counts.status5xx++
				}
				ok := status == 204
				if decide {
					ok = status == 200 && bytes.Contains(reply, wantMPTCP) && bytes.Contains(reply, wantPaths)
				}
				if !ok {
					out.failed++
				}
			}
		}(w)
	}
	wg.Wait()
	st := passStats{ops: n, wall: time.Since(t0)}
	for _, o := range outs {
		if o.err != nil {
			return passStats{}, fmt.Errorf("request failed: %w", o.err)
		}
		st.latUS = append(st.latUS, o.lat...)
		st.failed += o.failed
		st.serve.add(o.counts)
	}
	return st, nil
}

func siteName(dst []byte, i int) []byte {
	dst = append(dst, "site-"...)
	for d := 100000; d > 0; d /= 10 {
		dst = append(dst, byte('0'+i/d%10))
	}
	return dst
}

func appendTelemetry(dst []byte, site int, path string, mbps float64, rttMS int) []byte {
	dst = append(dst, `{"site":"`...)
	dst = siteName(dst, site)
	dst = append(dst, `","path":"`...)
	dst = append(dst, path...)
	dst = append(dst, `","mbps":`...)
	dst = strconv.AppendFloat(dst, mbps, 'f', 3, 64)
	dst = append(dst, `,"rtt_ms":`...)
	dst = strconv.AppendInt(dst, int64(rttMS), 10)
	return append(dst, '}')
}

func appendDecide(dst []byte, site int) []byte {
	dst = append(dst, `{"site":"`...)
	dst = siteName(dst, site)
	dst = append(dst, `","flow_bytes":`...)
	dst = strconv.AppendInt(dst, flowBytes, 10)
	return append(dst, '}')
}

// mix is splitmix64: a seeded value for (seed, a, b) without state, so
// any connection can generate any request of the plan.
func mix(seed int64, a, b int) float64 {
	z := uint64(seed) + uint64(a)*0x9e3779b97f4a7c15 + uint64(b)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// telemetryFor renders sample k of a site: even samples report wifi,
// odd ones lte, with seeded rates inside the fixed ranges.
func telemetryFor(dst []byte, seed int64, site, k int) []byte {
	u := mix(seed, site, k)
	if k%2 == 0 {
		return appendTelemetry(dst, site, "wifi", wifiLoMbps+u*(wifiHiMbps-wifiLoMbps), 25)
	}
	return appendTelemetry(dst, site, "lte", lteLoMbps+u*(lteHiMbps-lteLoMbps), 45)
}

// serveInstance is a running server and the request plan of one of the
// two serve workloads.
type serveInstance struct {
	cfg    config
	bin    string
	srv    *server
	ingest bool
	perm   []int   // seeded site order
	next   int     // serve-decide: next request index; serve-ingest: next group
	rssMB  float64 // serve-ingest: peak memory when the store reached rssSites
}

func setupServeDecide(cfg config) (instance, error) { return newServeInstance(cfg, false) }
func setupServeIngest(cfg config) (instance, error) { return newServeInstance(cfg, true) }

func newServeInstance(cfg config, ingest bool) (*serveInstance, error) {
	bin, err := buildServe(cfg)
	if err != nil {
		return nil, err
	}
	si := &serveInstance{cfg: cfg, bin: bin, ingest: ingest}
	n := cfg.scale.prewarmSites
	if ingest {
		n = cfg.scale.ingestSites
	}
	si.perm = rand.New(rand.NewSource(cfg.seed)).Perm(n)
	if err := si.startServer(); err != nil {
		os.Remove(bin)
		return nil, err
	}
	return si, nil
}

// startServer starts a fresh server; serve-decide pre-warms its working
// set with one wifi and one lte sample per site.
func (si *serveInstance) startServer() error {
	srv, err := startServe(si.bin)
	if err != nil {
		return err
	}
	si.srv, si.next = srv, 0
	if si.ingest {
		return nil
	}
	hc, err := dialHTTP(srv.addr)
	if err != nil {
		srv.stop()
		return err
	}
	defer hc.close()
	var body, raw []byte
	for _, site := range si.perm {
		for k := 0; k < 2; k++ {
			body = telemetryFor(body[:0], si.cfg.seed, site, k)
			raw = appendRequest(raw[:0], "POST", "/v1/telemetry", body)
			if status, _, err := hc.do(raw); err != nil || status != 204 {
				srv.stop()
				return fmt.Errorf("pre-warm telemetry: status %d: %v", status, err)
			}
			srv.telemetry++
		}
	}
	return nil
}

// Requests come in groups of eight: serve-decide sends seven decides to
// one telemetry sample, as cmd/bench -serve-load mixes them, and
// serve-ingest seven samples for a new site and then one decide on it.
const groupSize = 8

func (si *serveInstance) pass(conns int, rec *recorder) (passStats, error) {
	n := si.cfg.scale.blockRequests
	if si.ingest {
		return si.ingestPass(conns, n, rec)
	}
	base := si.next
	si.next += n
	seed, sites := si.cfg.seed, len(si.perm)
	fault := si.cfg.fault == faultNotFound && base == 0
	st, err := runBlock(si.srv.addr, conns, n, func(w, i int, body []byte) (string, []byte, bool) {
		j := base + i
		if j%groupSize == groupSize-1 {
			// One telemetry sample per eight requests, walking the
			// sites; each lap switches path, so both stay fresh.
			t := j / groupSize
			return "/v1/telemetry", telemetryFor(body, seed, si.perm[t%sites], t/sites), false
		}
		site := si.perm[j%sites]
		if fault && i == 0 {
			site = sites // never reported: the server answers 404
		}
		return "/v1/decide", appendDecide(body, site), true
	}, rec)
	if err != nil {
		return st, err
	}
	si.srv.telemetry += n / groupSize
	si.srv.decides += n - n/groupSize
	if fault {
		si.srv.decides-- // the 404 is counted under unknown_site
	}
	return st, nil
}

// ingestPass sends whole groups: seven telemetry samples for a site
// nobody has named before (two create its paths, five update them in
// place), then one decide on it, all on one connection. The store only
// grows; the server's peak memory is read when it first holds rssSites
// sites, which is the same point in every run.
func (si *serveInstance) ingestPass(conns, n int, rec *recorder) (passStats, error) {
	groups := n / groupSize / conns * conns // whole groups, the same number on every connection
	base := si.next
	si.next += groups
	seed, sites := si.cfg.seed, len(si.perm)
	// runBlock hands worker w the requests i ≡ w (mod conns); its
	// seq-th request is step seq%groupSize of its (seq/groupSize)-th
	// group, and the workers' groups interleave.
	st, err := runBlock(si.srv.addr, conns, groups*groupSize, func(w, i int, body []byte) (string, []byte, bool) {
		seq := i / conns
		site, k := si.perm[(base+seq/groupSize*conns+w)%sites], seq%groupSize
		if k == groupSize-1 {
			return "/v1/decide", appendDecide(body, site), true
		}
		return "/v1/telemetry", telemetryFor(body, seed, site, k), false
	}, rec)
	if err != nil {
		return st, err
	}
	si.srv.telemetry += groups * (groupSize - 1)
	si.srv.decides += groups
	if si.rssMB == 0 && si.next >= si.cfg.scale.rssSites {
		if si.rssMB, err = peakRSSMB(si.srv.cmd.Process.Pid); err != nil {
			return st, err
		}
	}
	return st, nil
}

// close checks the server's counters against the plan, reads its peak
// memory and stops it.
func (si *serveInstance) close() (closeStats, error) {
	defer os.Remove(si.bin)
	defer si.srv.stop()
	wantSites := len(si.perm)
	if si.ingest {
		// A run too short to reach the sample size tops the store up,
		// so that memory is always read at the same store size. (An
		// instance that made no pass is a repeated set-up: nothing to
		// read.)
		for si.rssMB == 0 && si.next > 0 {
			if _, err := si.ingestPass(si.cfg.nproc, si.cfg.scale.blockRequests, nil); err != nil {
				return closeStats{}, err
			}
		}
		wantSites = min(si.next, len(si.perm))
	}
	failed, err := si.srv.check(wantSites)
	if err != nil {
		return closeStats{}, err
	}
	rss := si.rssMB
	if !si.ingest {
		if rss, err = peakRSSMB(si.srv.cmd.Process.Pid); err != nil {
			return closeStats{}, err
		}
	}
	return closeStats{rssMB: rss, failed: failed}, nil
}
