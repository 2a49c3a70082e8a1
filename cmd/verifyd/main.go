// Command verifyd is the verification daemon, serving either or both of
// two planes:
//
// Worker plane (-listen, the default): one worker node of the distributed
// verification backend (internal/dverify). A coordinator — cmd/verifyslot
// or cmd/experiments with -connect, or a front-door verifyd with -connect
// — dials a set of worker verifyds, ships each a shard range of the
// packed state space, and drives the search over them. The daemons also
// dial each other at job setup (one mesh data link per ordered node pair),
// so frontier batches flow worker↔worker and never transit the
// coordinator.
//
// Admission plane (-http): the HTTP/JSON admission service front door
// (internal/admit). POST /v1/admit submits a profile set + slot config
// and returns the verdict with its search statistics; GET /v1/jobs/{id}
// polls an async submit; /healthz and /statsz expose liveness and
// counters. The front door verifies over loopback lanes in this process
// (-nodes), or over a worker fleet (-connect), with service-level
// coalescing of identical submits, a bounded request queue, and an
// optional persistent verdict cache (-cachedir) checkpointed
// incrementally by fingerprint-prefix shard.
//
// Usage:
//
//	verifyd -listen 127.0.0.1:9471 [-quiet]                 # worker only
//	verifyd -http 127.0.0.1:9833 -listen "" [-nodes 4]      # front door only
//	verifyd -http :9833 -connect host1:9471,host2:9471      # front door over a fleet
//
// Resilience: -connect dials with a bounded exponential-backoff retry
// (-connect-retries, -connect-backoff) so the fleet may boot in any
// order. -ft makes the distributed runs fault-tolerant — worker deaths
// are survived by reassigning the dead node's hash shards and rolling
// back to the last per-level checkpoint under -ftdir, with the verdict
// and all exhaustive counts unchanged. -retries, -breaker and
// -localfallback govern the admission plane's backend retry policy,
// circuit breaker, and local degraded mode (all off by default).
//
// Both planes drain on SIGINT/SIGTERM: new sessions and new submits are
// refused (HTTP submits get 503 + Retry-After) while in-flight searches
// and verdicts run to completion and the verdict cache checkpoints; a
// second signal forces an immediate exit.
//
// Telemetry: the admission plane serves Prometheus text exposition at
// GET /metricsz (engine counters, per-link wire bytes, queue depth,
// per-config admission latency histograms). A worker-only daemon's plane
// is raw TCP, so -metrics starts a separate HTTP admin listener serving
// the same /metricsz. -pprof mounts net/http/pprof (and /debug/vars via
// expvar) on whichever HTTP surfaces are up.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	nhpprof "net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"tightcps/internal/admit"
	"tightcps/internal/dverify"
	"tightcps/internal/obs"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// mountDebug adds the pprof handlers and the expvar bridge to an admin mux.
func mountDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", nhpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", nhpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", nhpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", nhpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", nhpprof.Trace)
	obs.Default.PublishExpvar("tightcps")
	mux.Handle("GET /debug/vars", expvar.Handler())
}

func main() {
	listen := flag.String("listen", "127.0.0.1:9471", "worker-plane address (empty disables the worker plane)")
	httpAddr := flag.String("http", "", "admission-plane HTTP address (empty disables the admission plane)")
	nodes := flag.Int("nodes", 0, "admission plane: verify over N loopback lane workers in this process (0 = local engine)")
	connect := flag.String("connect", "", "admission plane: verify over this comma-separated worker fleet")
	connectRetries := flag.Int("connect-retries", 5, "startup dial attempts per -connect worker address (1 = no retry)")
	connectBackoff := flag.Duration("connect-backoff", 500*time.Millisecond, "base backoff between -connect dial attempts (doubled per attempt, capped at 10s)")
	ft := flag.Bool("ft", false, "fault-tolerant distributed runs: survive worker deaths by shard reassignment and rollback (see -ftdir)")
	ftdir := flag.String("ftdir", "", "checkpoint directory for -ft runs, visible to every worker (empty = recovery restarts the search)")
	workers := flag.Int("workers", 0, "expansion workers per search/node (0 = GOMAXPROCS lanes, 1 = sequential)")
	cachedir := flag.String("cachedir", "", "persist admission verdicts under this directory (sharded, incremental)")
	checkpoint := flag.Duration("checkpoint", 30*time.Second, "verdict-cache checkpoint interval")
	queue := flag.Int("queue", 64, "admission request queue depth")
	concurrency := flag.Int("concurrency", 1, "concurrent backend verifications")
	maxstates := flag.Int("maxstates", 0, "clamp per-request state budgets (0 = engine default)")
	timeout := flag.Duration("timeout", 0, "default per-request budget when the submit sets none (0 = none)")
	retries := flag.Int("retries", 0, "retry transient backend failures this many times (0 = report the first failure)")
	retryBackoff := flag.Duration("retry-backoff", 0, "base backoff before the first backend retry (0 = 100ms; doubled per attempt, jittered, capped at 5s)")
	breaker := flag.Int("breaker", 0, "open the backend circuit after this many consecutive failed verifications (0 = no breaker)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open circuit refuses the backend (0 = 30s)")
	localFallback := flag.Bool("localfallback", false, "serve verdicts from the in-process engine when the backend is unavailable instead of returning 502")
	metricsAddr := flag.String("metrics", "", "HTTP admin address serving /metricsz (for worker-only daemons; the admission plane serves /metricsz itself)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof and /debug/vars on the HTTP surfaces")
	quiet := flag.Bool("quiet", false, "suppress per-session logging")
	flag.Parse()

	logger := log.New(os.Stderr, "verifyd: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *listen == "" && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "verifyd: nothing to serve (both -listen and -http empty)")
		os.Exit(2)
	}
	if *ft && *nodes == 0 && *connect == "" {
		// Workers inherit fault tolerance from the coordinator's job setup;
		// -ft only means something on the side driving a cluster.
		fmt.Fprintln(os.Stderr, "verifyd: -ft drives a cluster; it needs -nodes or -connect")
		os.Exit(2)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	var wg sync.WaitGroup
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "verifyd:", err)
		os.Exit(1)
	}

	// Worker plane.
	var workerSrv *dverify.Server
	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			fail(err)
		}
		var slogf func(string, ...any)
		if !*quiet {
			slogf = logf
		}
		workerSrv = dverify.NewServer(l, slogf)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := workerSrv.Serve(); err != nil {
				fail(err)
			}
		}()
		logf("worker listening on %s", l.Addr())
	}

	// Admin plane: a plain HTTP listener for /metricsz (and pprof) — the
	// worker plane is raw TCP, so a worker-only daemon has no other HTTP
	// surface to scrape. Dies with the process; it serves no state worth
	// draining.
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metricsz", obs.Default.Handler())
		if *pprofOn {
			mountDebug(mux)
		}
		l, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fail(err)
		}
		go func() {
			if err := http.Serve(l, mux); err != nil {
				logf("admin listener: %v", err)
			}
		}()
		logf("metrics on http://%s/metricsz", l.Addr())
	}

	// Admission plane.
	var svc *admit.Service
	var httpSrv *http.Server
	if *httpAddr != "" {
		opts := admit.Options{
			Workers:          *workers,
			QueueDepth:       *queue,
			Concurrency:      *concurrency,
			MaxStates:        *maxstates,
			DefaultTimeout:   *timeout,
			CacheDir:         *cachedir,
			Checkpoint:       *checkpoint,
			RetryAttempts:    *retries,
			RetryBackoff:     *retryBackoff,
			BreakerThreshold: *breaker,
			BreakerCooldown:  *breakerCooldown,
			LocalFallback:    *localFallback,
			Logf:             logf,
		}
		ts, desc, err := dverify.ClusterRetry(*nodes, *connect, *connectRetries, *connectBackoff, logf)
		if err != nil {
			fail(err)
		}
		if ts != nil {
			defer dverify.Close(ts)
			opts.Backend = dverify.Runner(ts)
			opts.BackendNodes = len(ts)
			opts.BackendDesc = desc
			if *ft {
				// Fault tolerance is a deployment property of this cluster,
				// not a per-request knob: stamp it onto every backend run.
				run, dir := opts.Backend, *ftdir
				opts.Backend = func(ps []*switching.Profile, cfg verify.Config) (verify.Result, error) {
					cfg.FaultTolerance = true
					cfg.CheckpointDir = dir
					return run(ps, cfg)
				}
				opts.BackendDesc += " (fault-tolerant)"
			}
		}
		svc = admit.New(opts)
		l, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fail(err)
		}
		handler := svc.Handler()
		if *pprofOn {
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mountDebug(mux)
			handler = mux
		}
		httpSrv = &http.Server{Handler: handler}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := httpSrv.Serve(l); err != nil && err != http.ErrServerClosed {
				fail(err)
			}
		}()
		backend := opts.BackendDesc
		if backend == "" {
			backend = "local engine"
		}
		logf("admission service on http://%s (backend: %s)", l.Addr(), backend)
	}

	// Combined drain: the first signal drains both planes — the admission
	// service finishes in-flight verdicts and checkpoints while the
	// worker server finishes active sessions — the second forces exit.
	go func() {
		<-sigs
		logf("draining: refusing new work, finishing in-flight (signal again to force exit)")
		if svc != nil {
			go func() {
				svc.Drain()
				// The HTTP listener stays up through the drain so
				// in-flight responses and 503s flow; close it once the
				// last verdict is out.
				httpSrv.Close()
			}()
		}
		if workerSrv != nil {
			go workerSrv.Shutdown()
		}
		<-sigs
		logf("forced exit")
		os.Exit(1)
	}()

	wg.Wait()
	logf("drained; bye")
}
