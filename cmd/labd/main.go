// Command labd serves the course's simulators over HTTP/JSON: assemble
// and run machine programs, compile mini-C, replay cache and VM traces,
// run the Game of Life with a speedup report, generate homework sets, and
// regenerate the survey's Figure 1. Requests flow through a bounded job
// queue into a fixed worker pool; a full queue answers 429, and SIGTERM
// triggers a graceful drain of in-flight jobs.
//
// Every request is parsed and checked in its HTTP goroutine: a request
// its own fields make invalid (a missing source, a size past its bound,
// an unknown policy or engine) gets its 400 there, before the memo and
// the queue, so it never takes a queue slot or a 429. Valid requests to
// the deterministic endpoints are memoized: repeated identical requests
// are served from pre-encoded response bytes, and concurrent identical
// requests coalesce onto one computation (-cache-bytes sizes the budget,
// 0 disables; clients bypass with Cache-Control: no-cache).
//
// Usage:
//
//	labd -addr :8031
//	labd -workers 8 -queue 64 -timeout 5s
//	labd -cache-bytes 67108864
//
// -workers takes at most labd.MaxWorkers and -queue at most
// labd.MaxQueueDepth; labd refuses a larger value before it starts.
//
// Observability: one metrics registry, rendered as Prometheus text at
// GET /metrics and as expvar-style JSON at GET /debug/vars (responses
// are counted by route and exact HTTP status), GET /healthz, a
// structured (JSON) request log on stderr with per-request IDs (also
// returned as X-Labd-Request-Id), -trace-dir to record a Chrome
// trace-event timeline of the whole run (written on graceful shutdown;
// events lost to a full ring count in labd_trace_dropped_events_total),
// and -pprof to mount net/http/pprof under /debug/pprof/ (off by
// default).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cs31/internal/labd"
	"cs31/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "labd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8031", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue depth (0 = 4x workers)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline")
	maxSteps := flag.Int64("max", 10_000_000, "instruction budget cap for machine jobs")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget")
	quiet := flag.Bool("quiet", false, "disable the request log")
	cacheBytes := flag.Int64("cache-bytes", labd.DefaultCacheBytes,
		"response memoization budget in bytes, split across endpoints (0 disables)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceDir := flag.String("trace-dir", "", "record a Chrome trace-event timeline and write it here on shutdown")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("usage: labd [-addr :8031] [-workers N] [-queue N] [-timeout d]")
	}
	if err := checkPool(*workers, *queue); err != nil {
		return err
	}

	cacheCfg := labd.CacheConfig{MaxBytes: *cacheBytes}
	if *cacheBytes <= 0 {
		cacheCfg.MaxBytes = -1
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	var tr *obs.Trace
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
		tr = obs.New()
	}
	srv := labd.New(labd.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxSteps:       *maxSteps,
		Logger:         logger,
		Cache:          cacheCfg,
		EnablePprof:    *pprofOn,
		Trace:          tr,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if logger != nil {
			logger.Info("listening", slog.String("addr", *addr))
		}
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful teardown: stop accepting connections and let in-flight
	// handlers finish, then drain the job queue and worker pool.
	if logger != nil {
		logger.Info("shutting down", slog.Duration("drain_budget", *drain))
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("scheduler drain: %w", err)
	}
	if tr != nil {
		path := filepath.Join(*traceDir, fmt.Sprintf("labd-trace-%d.json", os.Getpid()))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("export trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		if logger != nil {
			logger.Info("trace written", slog.String("path", path), slog.Uint64("dropped", tr.Drops()))
		}
	}
	if logger != nil {
		logger.Info("drained, exiting")
	}
	return nil
}

// checkPool refuses a pool labd cannot build: every worker starts a
// goroutine and a histogram shard, and the queue is allocated whole.
func checkPool(workers, queue int) error {
	if workers > labd.MaxWorkers {
		return fmt.Errorf("-workers %d exceeds max %d", workers, labd.MaxWorkers)
	}
	if queue > labd.MaxQueueDepth {
		return fmt.Errorf("-queue %d exceeds max %d", queue, labd.MaxQueueDepth)
	}
	return nil
}
