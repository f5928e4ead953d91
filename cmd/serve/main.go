// Serve runs the online path-selection service: clients stream probe
// telemetry in, and ask "which path(s), MPTCP or not, which scheduler?"
// for each flow they are about to start — the operational form of the
// paper's adaptive-selection conclusion. It answers with the policy the
// ablation-selector experiment measures, over a store with a 30 s
// half-life; its flags only place and stop the server.
//
//	serve -addr :8080 -drain-grace 2s -shutdown-timeout 10s
//
//	curl -s localhost:8080/v1/telemetry -d '{"site":"cdn","path":"wifi","mbps":12.5,"rtt_ms":25}'
//	curl -s localhost:8080/v1/decide    -d '{"site":"cdn","flow_bytes":1048576}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"multinet/internal/selector"
	"multinet/internal/serve/httpd"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	drainGrace := flag.Duration("drain-grace", 2*time.Second,
		"time to advertise draining health before closing listeners on SIGTERM")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second,
		"maximum wait for in-flight requests after listeners close")
	flag.Parse()

	store := selector.NewStore(selector.StoreConfig{})
	srv := httpd.New(httpd.Config{Store: store})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("serve: listening on %s (%d shards)", ln.Addr(), store.ShardCount())

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful degradation on SIGTERM: first advertise draining on
	// /v1/healthz so load balancers stop sending new work, keep serving
	// through the grace window, then close listeners and wait for
	// in-flight requests.
	srv.SetDraining(true)
	log.Printf("serve: draining (grace %v)", *drainGrace)
	time.Sleep(*drainGrace)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("serve: shutdown: %v", err)
	}
	if err := <-errc; !errors.Is(err, httpd.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	st := srv.StatsSnapshot()
	fmt.Printf("serve: handled %d decides, %d telemetry samples across %d sites\n",
		st.Decides, st.Telemetry, st.Sites)
}
