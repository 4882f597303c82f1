package labd

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cs31/internal/memo"
	"cs31/internal/obs"
)

// requestIDHeader carries the per-request ID the access-log line also
// records, so a log entry, a trace span, and a client-side error report
// all join on one value.
const requestIDHeader = "X-Labd-Request-Id"

// serverObs is the daemon's one metrics store plus its trace recorder:
// a Prometheus-style registry that GET /metrics renders and GET
// /debug/vars reads, and a trace (nil unless Config.Trace is set).
type serverObs struct {
	reg   *obs.Registry
	trace *obs.Trace
	start time.Time // server start, for uptime

	reqSeq atomic.Uint64 // request-ID source

	// httpLane is the shared request timeline: every HTTP goroutine
	// records Complete (X) events on it — the one event kind the MPSC
	// lane supports from many writers (B/E nesting needs a single
	// owner; see internal/obs).
	httpLane *obs.Lane
	nRequest obs.Name // "request", args: status, id
	nMarshal obs.Name // "marshal"

	marshal *obs.Histogram // encode time of cold responses

	mu        sync.RWMutex
	responses map[routeStatus]*responseObs // by (route pattern, status)
	outcomes  map[string]*cacheObs         // by cached-endpoint name
}

// routeStatus identifies one labd_responses_total series.
type routeStatus struct {
	route  string
	status int
}

// responseObs is one (route, status) pair's response counter plus the
// route's request-duration histogram, which all its statuses share.
type responseObs struct {
	count *obs.Counter
	dur   *obs.Histogram
}

// cacheObs is one cached endpoint's per-outcome latency histograms:
// how long a hit, a miss, and a coalesced wait each take end to end.
type cacheObs struct {
	byOutcome [3]*obs.Histogram // indexed by memo.Outcome
}

func newServerObs(cfg *Config) *serverObs {
	o := &serverObs{
		reg:       obs.NewRegistry(),
		trace:     cfg.Trace,
		start:     time.Now(),
		responses: make(map[routeStatus]*responseObs),
		outcomes:  make(map[string]*cacheObs),
	}
	o.marshal = o.reg.Histogram("labd_marshal_duration_seconds",
		"Time to encode a cold response body.", "", 4)
	if o.trace != nil {
		o.httpLane = o.trace.Lane("http")
		o.nRequest = o.trace.Name("request", "status", "id")
		o.nMarshal = o.trace.Name("marshal")
	}
	return o
}

// nextRequestID mints the request's ID: a process-unique hex counter,
// cheap enough to stamp on every request including cache hits.
func (o *serverObs) nextRequestID() (uint64, string) {
	n := o.reqSeq.Add(1)
	return n, strconv.FormatUint(n, 16)
}

// response returns (creating on first use) the series of one route and
// status. The read-locked fast path is one map lookup.
func (o *serverObs) response(route string, status int) *responseObs {
	k := routeStatus{route, status}
	o.mu.RLock()
	ro := o.responses[k]
	o.mu.RUnlock()
	if ro != nil {
		return ro
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if ro = o.responses[k]; ro != nil {
		return ro
	}
	label := obs.Label("route", route)
	ro = &responseObs{
		count: o.reg.Counter("labd_responses_total", "Responses by route and HTTP status.",
			label+","+obs.Label("status", strconv.Itoa(status))),
		dur: o.reg.Histogram("labd_request_duration_seconds",
			"End-to-end request latency by route.", label, 4),
	}
	o.responses[k] = ro
	return ro
}

// observeRequest records one finished request, d after start: its
// response counter, its route's duration histogram, and (when tracing)
// an X span on the shared http lane carrying the status and request ID.
func (o *serverObs) observeRequest(route string, status int, start time.Time, d time.Duration, id uint64) {
	ro := o.response(route, status)
	ro.count.Inc()
	ro.dur.Observe(int64(d))
	o.httpLane.CompleteArgs(o.nRequest, start, int64(status), int64(id))
}

// totalRequests sums every response counter: the requests served.
func (o *serverObs) totalRequests() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var n int64
	for _, ro := range o.responses {
		n += ro.count.Value()
	}
	return n
}

// endpointVars is one route's labd.endpoint.* entry in /debug/vars.
type endpointVars struct {
	Endpoint  string           `json:"endpoint"`
	Requests  int64            `json:"requests"`
	ByStatus  map[string]int64 `json:"by_status"` // exact HTTP status -> count
	LatencyMs latencyVars      `json:"latency_ms"`
}

// latencyVars summarizes a route's request-duration histogram in
// milliseconds: the mean, and the count in each /metrics bucket that
// holds any ("le_1.048576ms" for the bucket up to that bound, "inf" for
// the tail).
type latencyVars struct {
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets"`
}

// endpoints reads every route's /debug/vars entry from the series
// /metrics renders, keyed by route pattern.
func (o *serverObs) endpoints() map[string]*endpointVars {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make(map[string]*endpointVars)
	for k, ro := range o.responses {
		ev := out[k.route]
		if ev == nil {
			ev = &endpointVars{Endpoint: k.route, ByStatus: make(map[string]int64), LatencyMs: latencyOf(ro.dur)}
			out[k.route] = ev
		}
		n := ro.count.Value()
		ev.Requests += n
		ev.ByStatus[strconv.Itoa(k.status)] = n
	}
	return out
}

// latencyOf reads h in /debug/vars's latency_ms shape. A bucket's count
// is the difference of two cumulative /metrics buckets.
func latencyOf(h *obs.Histogram) latencyVars {
	snap := h.Snapshot()
	lv := latencyVars{Buckets: make(map[string]int64)}
	if snap.Count > 0 {
		lv.Mean = float64(snap.Sum) / float64(snap.Count) / 1e6
	}
	var below int64
	for i, cum := range snap.Cumulative() {
		if n := cum - below; n > 0 {
			label := "inf"
			if i < obs.ExpositionBuckets {
				label = "le_" + strconv.FormatFloat(float64(obs.ExpositionBound(i))/1e6, 'f', -1, 64) + "ms"
			}
			lv.Buckets[label] = n
		}
		below = cum
	}
	return lv
}

// observeMarshal records the encode time of a cold response.
func (o *serverObs) observeMarshal(start time.Time) {
	o.marshal.Observe(int64(time.Since(start)))
	o.httpLane.Complete(o.nMarshal, start)
}

// observeCacheOutcome records how long a memoized request took, split
// by how the cache served it (hit / miss / coalesced).
func (o *serverObs) observeCacheOutcome(endpoint string, out memo.Outcome, d time.Duration) {
	if out > memo.Coalesced {
		return
	}
	o.mu.RLock()
	co := o.outcomes[endpoint]
	o.mu.RUnlock()
	if co == nil {
		o.mu.Lock()
		if co = o.outcomes[endpoint]; co == nil {
			co = &cacheObs{}
			for i, name := range []string{"miss", "hit", "coalesced"} {
				co.byOutcome[i] = o.reg.Histogram("labd_cache_request_duration_seconds",
					"Memoized request latency by endpoint and cache outcome.",
					obs.Label("endpoint", endpoint)+","+obs.Label("outcome", name), 4)
			}
			o.outcomes[endpoint] = co
		}
		o.mu.Unlock()
	}
	co.byOutcome[out].Observe(int64(d))
}

// registerScrapeFuncs exposes the daemon's existing counters — the
// sources /debug/vars reads too — as scrape-time Prometheus series,
// read fresh on every GET /metrics with zero per-request cost.
func (s *Server) registerScrapeFuncs() {
	r, o := s.obs.reg, s.obs
	sc := s.sched
	r.CounterFunc("labd_scheduler_submitted_total", "Jobs accepted into the bounded queue.", "",
		func() int64 { return sc.submitted.Load() })
	r.CounterFunc("labd_scheduler_rejected_total", "Jobs refused with queue-full backpressure.", "",
		func() int64 { return sc.rejected.Load() })
	r.CounterFunc("labd_scheduler_completed_total", "Jobs a worker ran to completion.", "",
		func() int64 { return sc.completed.Load() })
	r.CounterFunc("labd_scheduler_skipped_total", "Jobs whose context expired while queued.", "",
		func() int64 { return sc.skipped.Load() })
	r.GaugeFunc("labd_scheduler_active_jobs", "Jobs executing on a worker right now.", "",
		func() int64 { return sc.active.Load() })
	r.GaugeFunc("labd_queue_len", "Jobs waiting in the bounded queue.", "",
		func() int64 { return int64(len(sc.queue)) })
	r.GaugeFunc("labd_queue_cap", "Bounded queue capacity.", "",
		func() int64 { return int64(cap(sc.queue)) })
	r.GaugeFunc("labd_queue_hwm", "Deepest the queue has ever been.", "",
		func() int64 { return sc.queueHWM.Load() })
	r.GaugeFunc("labd_workers", "Worker pool size.", "",
		func() int64 { return int64(sc.workers) })
	r.CounterFunc("labd_requests_total", "HTTP requests served.", "", o.totalRequests)
	r.GaugeFunc("labd_uptime_seconds", "Seconds since the server started.", "",
		func() int64 { return int64(time.Since(o.start) / time.Second) })
	if o.trace != nil {
		r.CounterFunc("labd_trace_dropped_events_total",
			"Trace events discarded because a lane's ring was full.", "",
			func() int64 { return int64(o.trace.Drops()) })
	}
	for name, c := range s.caches {
		c := c
		ep := obs.Label("endpoint", name)
		r.CounterFunc("labd_cache_hits_total", "Memoization hits by endpoint.", ep,
			func() int64 { return c.Stats().Hits })
		r.CounterFunc("labd_cache_misses_total", "Memoization misses by endpoint.", ep,
			func() int64 { return c.Stats().Misses })
		r.CounterFunc("labd_cache_coalesced_total", "Requests that waited on another's computation.", ep,
			func() int64 { return c.Stats().Coalesced })
		r.CounterFunc("labd_cache_evictions_total", "LRU evictions by endpoint.", ep,
			func() int64 { return c.Stats().Evictions })
		r.GaugeFunc("labd_cache_entries", "Resident cache entries by endpoint.", ep,
			func() int64 { return int64(c.Stats().Entries) })
		r.GaugeFunc("labd_cache_bytes", "Resident cache bytes by endpoint.", ep,
			func() int64 { return c.Stats().Bytes })
	}
}
