package labd

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"cs31/internal/memo"
	"cs31/internal/obs"
)

// Config parameterizes the daemon. Zero values select defaults sized to
// the host: GOMAXPROCS workers, a queue 4x as deep, 10s request budget,
// a DefaultCacheBytes memoization budget.
type Config struct {
	Workers        int           // worker pool size
	QueueDepth     int           // bounded queue capacity
	DefaultTimeout time.Duration // per-request deadline when the client sets none
	MaxSteps       int64         // hard cap on machine instruction budgets
	Logger         *slog.Logger  // structured request log; nil disables
	Cache          CacheConfig   // response memoization sizing
	EnablePprof    bool          // mount net/http/pprof under /debug/pprof/

	// Trace, when non-nil, records request/marshal spans on an "http"
	// lane and per-worker queue-wait/handler spans, exportable as a
	// Chrome trace-event timeline via obs.Trace.WriteChromeTrace.
	Trace *obs.Trace
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 10_000_000
	}
	c.Cache.fillDefaults()
}

// Server is the lab-service daemon: an http.Handler whose /v1 endpoints
// funnel simulator jobs through the bounded queue into the worker pool.
type Server struct {
	cfg    Config
	sched  *Scheduler
	mux    *http.ServeMux
	caches map[string]*memo.Cache // per-endpoint response memoization
	obs    *serverObs             // the metrics registry and optional trace
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:    cfg,
		sched:  NewScheduler(cfg.Workers, cfg.QueueDepth),
		mux:    http.NewServeMux(),
		caches: make(map[string]*memo.Cache),
		obs:    newServerObs(&cfg),
	}
	s.initCaches()
	s.registerScrapeFuncs()
	s.sched.instrument(s.obs.reg, s.obs.trace)
	s.routes()
	return s
}

func (s *Server) routes() {
	registerJSON(s, "POST /v1/asm/run", "asm", asmKey, s.asmRun)
	registerJSON(s, "POST /v1/minic/compile", "minic", minicKey, s.minicCompile)
	registerJSON(s, "POST /v1/cache/sim", "cache", cacheSimKey, s.cacheSim)
	registerJSON(s, "POST /v1/vm/sim", "vm", vmSimKey, s.vmSim)
	registerJSON(s, "POST /v1/life/run", "life", lifeKey, s.lifeRun)
	s.handle("GET /v1/homework", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		topic := q.Get("topic")
		seed, err := queryInt64("seed", q.Get("seed"), 31)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		n64, err := queryInt64("n", q.Get("n"), 1)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		answers := q.Get("answers") != "false"
		key := homeworkKey(topic, seed, int(n64), answers)
		s.serveCached(w, r, "homework", key, true, func(ctx context.Context) (any, error) {
			return s.homeworkGen(ctx, topic, seed, int(n64), answers)
		})
	})
	s.handle("GET /v1/survey/figure1", func(w http.ResponseWriter, r *http.Request) {
		seed, err := queryInt64("seed", r.URL.Query().Get("seed"), 2022)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		st64, err := queryInt64("students", r.URL.Query().Get("students"), 120)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		key := surveyKey(seed, int(st64))
		s.serveCached(w, r, "survey", key, true, func(ctx context.Context) (any, error) {
			return s.surveyFigure1(ctx, seed, int(st64))
		})
	})
	s.handle("GET /healthz", s.healthz)
	s.handle("GET /debug/vars", s.debugVars)
	s.handle("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = s.obs.reg.WritePrometheus(w)
	})
	if s.cfg.EnablePprof {
		// Profiling is opt-in (-pprof): the handlers expose goroutine
		// dumps and CPU profiles, which an open classroom deployment
		// should not serve by default. Unregistered routes 404.
		s.handle("GET /debug/pprof/", pprof.Index)
		s.handle("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.handle("GET /debug/pprof/profile", pprof.Profile)
		s.handle("GET /debug/pprof/symbol", pprof.Symbol)
		s.handle("GET /debug/pprof/trace", pprof.Trace)
	}
}

// handle mounts h at pattern and stamps the pattern on the middleware's
// recorder, so metrics aggregate by route instead of raw path.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if sr, ok := w.(*statusRecorder); ok {
			sr.pattern = pattern
		}
		h(w, r)
	})
}

// queryInt64 parses an optional integer query parameter. A missing or
// empty value selects the default; a present-but-malformed one is a
// client error, not a silent fallback.
func queryInt64(name, s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, badReqf("query parameter %q: %q is not an integer", name, s)
	}
	return v, nil
}

// Handler returns the daemon's root handler with metrics and logging
// middleware applied.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Stamp the ID before the handler runs so cached responses carry
		// it too and the log line, the response header, and the trace
		// span all agree.
		reqNum, reqID := s.obs.nextRequestID()
		w.Header().Set(requestIDHeader, reqID)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		d := time.Since(start)

		// Metrics are keyed by the route pattern that matched, so
		// /v1/asm/run and /v1/asm/run?x=y aggregate together and unknown
		// paths roll up under one bucket.
		pattern := rec.pattern
		if pattern == "" {
			pattern = "(unmatched)"
		}
		s.obs.observeRequest(pattern, rec.status, start, d, reqNum)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", pattern),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Float64("duration_ms", float64(d)/float64(time.Millisecond)),
				slog.String("remote", r.RemoteAddr),
				slog.String("request_id", reqID),
				slog.String("cache", rec.Header().Get(cacheHeader)),
			)
		}
	})
}

// Shutdown stops accepting jobs and drains the queue and workers.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.sched.Shutdown(ctx)
}

// SchedStats snapshots the scheduler counters.
func (s *Server) SchedStats() SchedStats { return s.sched.Stats() }

// statusRecorder captures the status code, byte count, and matched route
// of a served request.
type statusRecorder struct {
	http.ResponseWriter
	status  int
	bytes   int64
	pattern string
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpStatusFor maps handler/scheduler errors onto HTTP statuses.
func httpStatusFor(err error) int {
	var br errBadRequest
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; nobody reads this, but the log should not
		// claim success.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// schedule funnels prepared work through the bounded queue into the
// worker pool and renders the outcome. fn closes only over values decoded
// in the HTTP goroutine — never the live *http.Request — because on a
// timeout the worker may still be running after ServeHTTP returns.
func (s *Server) schedule(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context) (any, error)) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()

	var resp any
	var jobErr error
	err := s.sched.Submit(ctx, func(ctx context.Context) {
		resp, jobErr = fn(ctx)
	})
	if err == nil {
		err = jobErr
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	t0 := time.Now()
	writeJSON(w, http.StatusOK, resp)
	s.obs.observeMarshal(t0)
}

// writeError renders err with its mapped status; queue-full responses
// carry backpressure guidance: the retry hint derives from the actual
// backlog so clients spread out proportionally to load instead of
// hammering back in lockstep one second later.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := httpStatusFor(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfter()))
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// registerJSON adapts a typed request/response handler onto the memoized
// queued path: decode the JSON body (1 MiB cap) up front, derive the
// request's canonical cache key, then serve from cache or run the
// simulator work through the pool and encode the reply.
func registerJSON[Req, Resp any](s *Server, pattern, endpoint string, keyFn func(*Server, Req) (uint64, bool), fn func(ctx context.Context, req Req) (Resp, error)) {
	s.handle(pattern, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := decodeBody(r, &req); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, errorBody{Error: "decode request: " + err.Error()})
			return
		}
		key, cacheable := keyFn(s, req)
		s.serveCached(w, r, endpoint, key, cacheable, func(ctx context.Context) (any, error) {
			return fn(ctx, req)
		})
	})
}

// healthzBody is the GET /healthz response.
type healthzBody struct {
	Status   string `json:"status"`
	Workers  int    `json:"workers"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	UptimeMs int64  `json:"uptime_ms"`
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	st := s.sched.Stats()
	writeJSON(w, http.StatusOK, healthzBody{
		Status:   "ok",
		Workers:  st.Workers,
		QueueLen: st.QueueLen,
		QueueCap: st.QueueCap,
		UptimeMs: time.Since(s.obs.start).Milliseconds(),
	})
}

// debugVars renders the daemon's counters in expvar's flat-JSON shape:
// one "labd.*" key per var, read from the same registry series and
// scheduler and cache counters that GET /metrics renders. The registry
// is per-server rather than process-global so concurrent servers
// (tests) don't collide.
func (s *Server) debugVars(w http.ResponseWriter, _ *http.Request) {
	sched := s.sched.Stats()
	vars := map[string]any{
		"labd.scheduler": map[string]int64{
			"submitted": sched.Submitted,
			"rejected":  sched.Rejected,
			"completed": sched.Completed,
			"skipped":   sched.Skipped,
		},
		"labd.workers":        sched.Workers,
		"labd.queue_cap":      sched.QueueCap,
		"labd.queue_len":      sched.QueueLen,
		"labd.queue_hwm":      sched.QueueHWM,
		"labd.active_jobs":    sched.Active,
		"labd.uptime_ms":      time.Since(s.obs.start).Milliseconds(),
		"labd.total_requests": s.obs.totalRequests(),
	}
	for route, ev := range s.obs.endpoints() {
		vars["labd.endpoint."+route] = ev
	}
	vars["labd.cache_enabled"] = len(s.caches) > 0
	if snaps := s.CacheStats(); len(snaps) > 0 {
		var total CacheSnapshot
		for _, cs := range snaps {
			vars["labd.cache."+cs.Endpoint] = cs
			total.Hits += cs.Hits
			total.Misses += cs.Misses
			total.Coalesced += cs.Coalesced
			total.Evictions += cs.Evictions
			total.Entries += cs.Entries
			total.Bytes += cs.Bytes
			total.Capacity += cs.Capacity
		}
		if n := total.Hits + total.Misses + total.Coalesced; n > 0 {
			total.HitRatio = float64(total.Hits+total.Coalesced) / float64(n)
		}
		total.Endpoint = "(all)"
		vars["labd.cache"] = total
	}
	writeJSON(w, http.StatusOK, vars)
}
