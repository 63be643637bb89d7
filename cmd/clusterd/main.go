// Command clusterd is the simulation-as-a-service daemon: a long-lived
// HTTP front end over the simulator with a bounded job queue, a
// two-tier content-addressed result cache, and backpressure.
//
//	POST /v1/jobs            submit {"app","arch","high_end","size"} → 202 (429 when full)
//	GET  /v1/jobs/{id}       status/result (?wait=10s long-polls)
//	GET  /v1/figures/{4578}  paper-figure matrices (?size=, ?format=text)
//	GET  /v1/metrics/{run}   interval metrics for a finished run (CSV/JSON)
//	GET  /v1/trace/{id}      one job's span timeline (Chrome trace JSON)
//	GET  /metrics            OpenMetrics scrape (latencies, queue, cache)
//	GET  /healthz            liveness + queue/cache statistics
//	GET  /debug/pprof/...    profiling endpoints (with -pprof)
//	GET  /debug/vars         expvar JSON (with -pprof)
//
// Identical submissions are content-addressed (SHA-256 of the resolved
// machine + workload spec) and served from cache in microseconds. A
// figure cell is keyed like the job for the same run, so figures and
// jobs share cache entries; with -cache-dir the cache survives
// restarts, and a restarted daemon serves both from disk. Graceful
// shutdown (SIGINT/SIGTERM) stops admission and drains running jobs.
//
// Usage:
//
//	clusterd [-addr :8421] [-size ref] [-workers N] [-queue N]
//	         [-alloc icount] [-alloc-epoch N] [-list-policies]
//	         [-cache-dir DIR] [-cache-entries N] [-max-cycles N]
//	         [-warmup-cycles N] [-metrics-interval N] [-port-file PATH]
//	         [-drain-timeout 30s] [-telemetry=false] [-pprof] [-version]
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clustersmt/internal/alloc"
	"clustersmt/internal/service"
	"clustersmt/internal/version"
	"clustersmt/internal/workloads"
)

// Connection timeouts, so idle or trickling clients cannot pin
// connections (and their goroutines) open forever. readHeaderTimeout
// bounds the request headers and readTimeout the whole request, body
// included (bodies are also capped at 1 MiB in the service);
// idleTimeout closes a keep-alive connection no request arrives on. The
// handler's run after the request is read is not bounded by any of
// them. There is no WriteTimeout: ?wait= long-polls and synchronous
// figure requests write their answer late, by design.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clusterd: ")

	addr := flag.String("addr", ":8421", "listen address (host:port; port 0 picks a free port)")
	sizeName := flag.String("size", "ref", "default input size for jobs and figures: test or ref")
	workers := flag.Int("workers", 0, "concurrent simulations, for jobs and figures alike (0 = GOMAXPROCS; an oracle search holds one while scoring candidates on up to GOMAXPROCS goroutines)")
	queueCap := flag.Int("queue", service.DefaultQueueCap, "job queue capacity (full queue returns 429)")
	allocPolicy := flag.String("alloc", "", "thread-to-cluster allocation policy for every simulation (default static; see -list-policies; on a single program icount and symbiosis cannot migrate until a thread finishes: the seed placement fills every cluster)")
	allocEpoch := flag.Int64("alloc-epoch", 0, "rebalance interval in cycles for dynamic allocation policies (0 = default)")
	listPolicies := flag.Bool("list-policies", false, "list the registered allocation policies and exit")
	cacheDir := flag.String("cache-dir", "", "persist results in this directory's append-only results.log (survives restarts; one daemon per directory)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory result cache entries (0 = default)")
	maxCycles := flag.Int64("max-cycles", 0, "per-simulation cycle bound (0 = core default)")
	warmupCycles := flag.Int64("warmup-cycles", 0, "fork prefix-declaring workloads from a checkpoint warmed to this cycle (0 = off; held in memory only, never written under -cache-dir)")
	metricsInterval := flag.Int64("metrics-interval", 0, "sample interval metrics every N cycles (0 = off)")
	portFile := flag.String("port-file", "", "write the bound port to this file once listening")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain running jobs at shutdown")
	telemetry := flag.Bool("telemetry", true, "serve OpenMetrics at /metrics and job traces at /v1/trace/{id}")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof and expvar at /debug/vars")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if *listPolicies {
		for _, p := range alloc.List() {
			fmt.Printf("%-10s %s\n", p.Name, p.Desc)
		}
		return
	}
	// A typoed -alloc fails at startup with the registered list, not on
	// the first job.
	if _, err := alloc.New(*allocPolicy); err != nil {
		log.Fatal(err)
	}

	size, err := workloads.ParseSize(*sizeName)
	if err != nil {
		log.Fatal(err)
	}

	svc, err := service.New(service.Options{
		DefaultSize:     size,
		Workers:         *workers,
		QueueCap:        *queueCap,
		CacheEntries:    *cacheEntries,
		CacheDir:        *cacheDir,
		MaxCycles:       *maxCycles,
		WarmupCycles:    *warmupCycles,
		AllocPolicy:     *allocPolicy,
		AllocEpoch:      *allocEpoch,
		MetricsInterval: *metricsInterval,

		DisableTelemetry: !*telemetry,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *portFile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portFile, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("listening on %s (default size %s, queue %d)", ln.Addr(), size, *queueCap)

	handler := svc.Handler()
	if *pprofFlag {
		// Debug endpoints ride an outer mux so the service API stays
		// unaware of them; gated behind the flag because profiling
		// handlers on an exposed daemon are an operational decision.
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/debug/vars", expvar.Handler())
		handler = outer
		log.Printf("pprof enabled at /debug/pprof (expvar at /debug/vars)")
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("shutting down: draining jobs (up to %s)", *drainTimeout)
	case err := <-serveErr:
		log.Fatal(err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Close(shutdownCtx); err != nil {
		log.Printf("close: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Printf("bye")
}
