package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"scalesim"
	"scalesim/internal/coordinator"
	"scalesim/internal/diskstore"
	"scalesim/internal/faultinject"
	"scalesim/internal/server"
)

// runServe implements `scalesim serve`: a long-lived HTTP/JSON job server
// over the Run, Sweep and Explore facades. All jobs share one process-wide
// layer-result cache, so repeated shapes across clients hit warm entries;
// /metrics exposes the cache and job counters.
//
// With -store the cache gains a persistent disk tier: results survive
// restarts, and a restarted worker answers previously-seen layers from
// disk without simulating. With -coordinator -workers=<url,url,...> the
// process accepts the same job API but dispatches jobs to the worker fleet
// instead of simulating, with payload-store reuse, server-side
// single-flight, health-checked routing and retry-with-backoff rerouting
// (see internal/coordinator); -store then persists rendered payloads.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains queued
// and running jobs (bounded by -drain-timeout), snapshots the store and
// exits 0.
func runServe(args []string) error {
	fs := flag.NewFlagSet("scalesim serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address; use port 0 for an ephemeral port")
		shards       = fs.Int("shards", 0, "workers draining the one job queue; bounds concurrent jobs (0 = GOMAXPROCS)")
		queueDepth   = fs.Int("queue", 64, "queued jobs per worker before enqueues are rejected with 503")
		parallelism  = fs.Int("parallelism", 1, "default per-job worker-pool width (requests may override)")
		cacheEntries = fs.Int("cache-entries", 0, "shared cache entry bound (0 = default 4096)")
		cacheMB      = fs.Int("cache-mb", 0, "shared cache size bound in MiB (0 = default 256)")
		maxJobs      = fs.Int("max-jobs", 0, "finished jobs retained for report fetching before the oldest are evicted (0 = default 1024)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		portFile     = fs.String("port-file", "", "write the bound listen address to this file (for scripts that pass port 0)")
		storeDir     = fs.String("store", "", "persistent result-store directory (worker: layer results; coordinator: payloads); empty = memory only")
		storeMB      = fs.Int("store-mb", 0, "store log capacity in MiB before GC (0 = default 1024)")
		coordMode    = fs.Bool("coordinator", false, "dispatch jobs to -workers instead of simulating in-process")
		workerList   = fs.String("workers", "", "comma-separated worker base URLs (required with -coordinator)")
		jobTimeout   = fs.Duration("job-timeout", 0, "default per-job execution deadline; jobs exceeding it fail (0 = none; requests may override via timeout_s)")
		maxQueueWait = fs.Duration("max-queue-wait", 0, "reject enqueues with 503 + Retry-After when the estimated queue wait exceeds this (0 = off)")
		faultSpec    = fs.String("faults", "", "deterministic fault-injection plan, e.g. \"seed=42,disk.error=0.05,net.reset=0.1,job.crash=0.02\" (empty = off)")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this extra loopback listener (e.g. 127.0.0.1:6060); empty = off")
		logLevel     = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat    = fs.String("log-format", "text", "log encoding: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	plan, err := faultinject.Parse(*faultSpec)
	if err != nil {
		return err
	}
	if plan != nil {
		logger.Warn("fault injection active", "plan", plan.String())
	}

	opts := server.Options{
		Shards:       *shards,
		QueueDepth:   *queueDepth,
		Parallelism:  *parallelism,
		MaxJobs:      *maxJobs,
		Cache:        scalesim.NewCache(*cacheEntries, int64(*cacheMB)<<20),
		Logger:       logger,
		JobTimeout:   *jobTimeout,
		MaxQueueWait: *maxQueueWait,
		JobHook:      plan.JobHook(),
	}
	if plan != nil {
		opts.FaultCounts = plan.Counts
	}
	var coord *coordinator.Coordinator
	if *coordMode {
		var workers []string
		for _, u := range strings.Split(*workerList, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workers = append(workers, strings.TrimRight(u, "/"))
			}
		}
		var err error
		coord, err = coordinator.New(coordinator.Options{
			Workers:       workers,
			StoreDir:      *storeDir,
			StoreBytes:    int64(*storeMB) << 20,
			Logger:        logger,
			WrapTransport: plan.RoundTripper,
			StoreFS:       plan.FS(nil),
		})
		if err != nil {
			return err
		}
		defer coord.Close() //nolint:errcheck // drained below; this covers early error returns
		opts.Executor = coord
	} else if *storeDir != "" {
		if err := opts.Cache.AttachStoreFS(*storeDir, int64(*storeMB)<<20, plan.FS(nil)); err != nil {
			return err
		}
		defer opts.Cache.CloseStore() //nolint:errcheck
		// The job journal lives next to the store: -store is the operator's
		// "this worker has durable state" switch, and restart recovery needs
		// both halves (journaled specs, persisted layer results) anyway.
		journal, records, err := diskstore.OpenJournal(
			filepath.Join(*storeDir, "jobs.journal"), plan.FS(nil))
		if err != nil {
			return err
		}
		defer journal.Close() //nolint:errcheck
		opts.Journal = journal
		opts.JournalRecords = records
		if _, recovered, damaged, _ := journal.Stats(); recovered > 0 || damaged > 0 {
			logger.Info("job journal recovered", "records", recovered, "damaged", damaged)
		}
	}

	srv := server.New(opts)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		pln, err := listenLoopback(*pprofAddr)
		if err != nil {
			ln.Close()
			return err
		}
		defer pln.Close()
		go http.Serve(pln, pprofMux()) //nolint:errcheck // dies with the process
		logger.Info("pprof listening", "addr", "http://"+pln.Addr().String()+"/debug/pprof/")
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	hs := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	switch {
	case coord != nil:
		fmt.Printf("scalesim serve: coordinating %d workers on http://%s (store=%q)\n",
			len(coord.Workers()), bound, *storeDir)
	case *storeDir != "":
		fmt.Printf("scalesim serve: listening on http://%s (workers=%d queue=%d store=%q)\n",
			bound, srv.Shards(), *queueDepth, *storeDir)
	default:
		fmt.Printf("scalesim serve: listening on http://%s (workers=%d queue=%d)\n",
			bound, srv.Shards(), *queueDepth)
	}

	select {
	case err := <-serveErr:
		// The listener failed before any shutdown signal.
		srv.Drain(context.Background()) //nolint:errcheck
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("scalesim serve: shutting down, draining jobs...")

	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Shutdown (stop accepting, close idle/held connections) runs
	// concurrently with the job drain: a client trickling a request or
	// holding an SSE stream must not consume the budget the simulations
	// need. Draining marks the server as rejecting first, so connections
	// that sneak a request in during shutdown get 503s, not new jobs.
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- hs.Shutdown(shutCtx) }()
	if err := srv.Drain(shutCtx); err != nil {
		return fmt.Errorf("drain timed out, canceled in-flight jobs: %w", err)
	}
	if err := <-shutdownErr; err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Println("scalesim serve: drained cleanly")
	return nil
}

// buildLogger resolves the -log-level / -log-format flags into an slog
// logger writing to stderr.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, ho)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// listenLoopback opens the pprof listener, refusing non-loopback binds so
// profiling endpoints never face the network by accident.
func listenLoopback(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-pprof address: %w", err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return nil, fmt.Errorf("-pprof address %s is not loopback; profiling stays local-only", addr)
	}
	return net.Listen("tcp", addr)
}

// pprofMux mounts the net/http/pprof handlers on a fresh mux, keeping them
// off the job API's handler entirely.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
