// Serve runs the online path-selection service: clients stream probe
// telemetry in, and ask "which path(s), MPTCP or not, which scheduler?"
// for each flow they are about to start — the operational form of the
// paper's adaptive-selection conclusion.
//
//	serve -addr :8080 -shards 64 -half-life 30s
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
	shards := flag.Int("shards", 0, "estimate store shards (rounded up to a power of two; 0 = default)")
	halfLife := flag.Duration("half-life", 0, "estimate decay half-life (0 = default 30s)")
	gain := flag.Float64("gain", 0, "telemetry EWMA gain in (0,1] (0 = default 0.3)")
	staleAfter := flag.Duration("stale-after", 0, "silence after which decisions degrade to single-path with the stale-telemetry rationale; a site silent for twice this is forgotten (0 = default 8x half-life)")
	shortFlow := flag.Int("short-flow-bytes", 0, "flows at or below this stay single-path (0 = default)")
	maxDisparity := flag.Float64("max-disparity", 0, "throughput ratio beyond which MPTCP is skipped (0 = default)")
	holAware := flag.Float64("holaware-disparity", 0, "disparity at which MPTCP escalates to the HoL-aware scheduler (0 = never)")
	coupled := flag.Bool("coupled", false, "prefer coupled congestion control for MPTCP flows")
	drainGrace := flag.Duration("drain-grace", 2*time.Second,
		"time to advertise draining health before closing listeners on SIGTERM")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second,
		"maximum wait for in-flight requests after listeners close")
	flag.Parse()

	cfg := selector.StoreConfig{
		Shards:     *shards,
		HalfLife:   *halfLife,
		Gain:       *gain,
		StaleAfter: *staleAfter,
		Policy: selector.Selector{
			ShortFlowBytes:    *shortFlow,
			MaxDisparity:      *maxDisparity,
			HoLAwareDisparity: *holAware,
			PreferCoupled:     *coupled,
		},
	}
	if bad := badFlags(cfg); len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(os.Stderr, "serve:", msg)
		}
		os.Exit(2)
	}
	store := selector.NewStore(cfg)
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

// badFlags returns one message per flag whose value the store would
// otherwise replace by its default without a word, or (for -shards past
// selector.MaxShards) refuse with a panic. Zero keeps each default.
func badFlags(cfg selector.StoreConfig) []string {
	var bad []string
	if cfg.Shards < 0 || cfg.Shards > selector.MaxShards {
		bad = append(bad, fmt.Sprintf("-shards %d: want 0 (default) to %d", cfg.Shards, selector.MaxShards))
	}
	if !(cfg.Gain >= 0 && cfg.Gain <= 1) {
		bad = append(bad, fmt.Sprintf("-gain %v: want 0 (default) or a value in (0, 1]", cfg.Gain))
	}
	if cfg.HalfLife < 0 {
		bad = append(bad, fmt.Sprintf("-half-life %v: want 0 (default) or more", cfg.HalfLife))
	}
	if cfg.StaleAfter < 0 {
		bad = append(bad, fmt.Sprintf("-stale-after %v: want 0 (default) or more", cfg.StaleAfter))
	}
	if cfg.Policy.ShortFlowBytes < 0 {
		bad = append(bad, fmt.Sprintf("-short-flow-bytes %d: want 0 (default) or more", cfg.Policy.ShortFlowBytes))
	}
	if !(cfg.Policy.MaxDisparity >= 0) {
		bad = append(bad, fmt.Sprintf("-max-disparity %v: want 0 (default) or more", cfg.Policy.MaxDisparity))
	}
	if !(cfg.Policy.HoLAwareDisparity >= 0) {
		bad = append(bad, fmt.Sprintf("-holaware-disparity %v: want 0 (never) or more", cfg.Policy.HoLAwareDisparity))
	}
	return bad
}
