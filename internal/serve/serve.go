// Package serve adapts the online path-selection service to net/http.
// The service itself — the route table, the HTTP/1.1 connection loop,
// the JSON codecs and the counters — is internal/serve/httpd, which
// imports no net/http so that cmd/serve links none of it; this package
// is the http.Handler face of the same Server for in-process callers
// (the benchmark's handler probes, tests). Both front doors answer
// through httpd's one route table.
package serve

import (
	"io"
	"net/http"
	"strconv"

	"multinet/internal/serve/httpd"
)

// Config assembles a Server.
type Config = httpd.Config

// Scratch is the pooled per-request state.
type Scratch = httpd.Scratch

// Server is the service with a net/http face: every method of
// httpd.Server, and Handler.
type Server struct{ *httpd.Server }

// New builds a Server over the given store.
func New(cfg Config) *Server { return &Server{httpd.New(cfg)} }

// Handler returns the service as an http.Handler: a thin adapter over
// the route table the connection loop answers from, for in-process
// callers and tests.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serveHTTP) }

func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	sc := s.GetScratch()
	defer s.PutScratch(sc)
	var rep httpd.Reply
	if readAll(r.Body, sc) {
		rep = s.Respond([]byte(r.Method), []byte(r.URL.Path), sc.In, sc)
	} else {
		rep = s.BadBody(sc)
	}
	h := w.Header()
	if rep.Allow != "" {
		h.Set("Allow", rep.Allow)
	}
	if rep.Status != http.StatusNoContent {
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(sc.Out)))
	}
	w.WriteHeader(rep.Status)
	if len(sc.Out) > 0 {
		w.Write(sc.Out)
	}
}

// readAll fills sc.In with what src holds to its end, reusing its
// capacity. The adapter's callers may not set a Content-Length, so it
// reads to EOF; false when src holds more than httpd.MaxBody bytes or
// fails.
func readAll(src io.Reader, sc *Scratch) bool {
	sc.In = sc.In[:0]
	if src == nil {
		return true
	}
	for {
		if len(sc.In) > httpd.MaxBody {
			return false
		}
		if cap(sc.In) == len(sc.In) {
			sc.In = append(sc.In, 0)[:len(sc.In)]
		}
		n, err := src.Read(sc.In[len(sc.In):cap(sc.In)])
		sc.In = sc.In[:len(sc.In)+n]
		if err == io.EOF {
			return len(sc.In) <= httpd.MaxBody
		}
		if err != nil {
			return false
		}
	}
}
