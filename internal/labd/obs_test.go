package labd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cs31/internal/obs"
)

// TestMetricsEndpoint scrapes GET /metrics after real traffic and checks
// the Prometheus text exposition: content type, the core families, label
// plumbing, and that the scheduler/cache scrape funcs report the same
// numbers as the existing stats snapshots.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	// Traffic: two identical homework requests (miss then hit) and one
	// asm run, so request, cache, and scheduler series all have data.
	for i := 0; i < 2; i++ {
		resp, _ := getURL(t, ts.URL+"/v1/homework?topic=circuits&seed=1&n=2")
		if resp.StatusCode != 200 {
			t.Fatalf("homework: status %d", resp.StatusCode)
		}
	}
	resp, body := getURL(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE labd_request_duration_seconds histogram",
		`labd_request_duration_seconds_bucket{route="GET /v1/homework",le="+Inf"}`,
		`labd_responses_total{route="GET /v1/homework",status="200"} 2`,
		"# TYPE labd_scheduler_submitted_total counter",
		`labd_cache_hits_total{endpoint="homework"} 1`,
		`labd_cache_misses_total{endpoint="homework"} 1`,
		`labd_cache_request_duration_seconds_count{endpoint="homework",outcome="hit"} 1`,
		`labd_cache_request_duration_seconds_count{endpoint="homework",outcome="miss"} 1`,
		"# TYPE labd_queue_wait_seconds histogram",
		"labd_marshal_duration_seconds_count 1",
		"# TYPE labd_workers gauge",
		"labd_workers 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Scrape funcs agree with the stats snapshot taken now.
	st := s.SchedStats()
	if want := fmt.Sprintf("labd_scheduler_completed_total %d", st.Completed); !strings.Contains(text, want) {
		t.Errorf("metrics output missing %q\n%s", want, text)
	}
	// The trace-drop family exists only on a traced server.
	if strings.Contains(text, "labd_trace_dropped_events_total") {
		t.Errorf("untraced server exports labd_trace_dropped_events_total")
	}
}

// TestMetricsTraceDrops: a trace whose lanes hold 8 events overflows on
// a dozen requests, and the loss shows on /metrics, read fresh from
// Trace.Drops at scrape time.
func TestMetricsTraceDrops(t *testing.T) {
	tr := obs.New(obs.WithLaneCapacity(8))
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Trace: tr})
	for i := 0; i < 12; i++ {
		getURL(t, ts.URL+"/healthz")
	}
	_, body := getURL(t, ts.URL+"/metrics")
	// Twelve request spans on the 8-slot http lane (nothing drains it
	// before export): four dropped when the scrape rendered, five once
	// the scrape's own span is recorded.
	samples := promSamples(t, body)
	if got := samples["labd_trace_dropped_events_total"]; got != 4 {
		t.Errorf("labd_trace_dropped_events_total = %v, want 4", got)
	}
	if got := tr.Drops(); got != 5 {
		t.Errorf("Trace.Drops() = %d after the scrape, want 5", got)
	}
}

// promSamples parses a Prometheus text exposition into its samples,
// keyed by series: "name{labels}".
func promSamples(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// quiescedViews renders /debug/vars and /metrics straight from the
// router, past the middleware, so neither read records itself and both
// see the same state.
func quiescedViews(t *testing.T, s *Server) (map[string]json.RawMessage, map[string]float64) {
	t.Helper()
	read := func(path string) []byte {
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	return decode[map[string]json.RawMessage](t, read("/debug/vars")), promSamples(t, read("/metrics"))
}

// debugVarsScript is the traffic behind the /debug/vars shape golden:
// three cache/sim requests (a miss, then two hits), one homework set,
// and one unknown route.
func debugVarsScript(t *testing.T, url string) {
	t.Helper()
	for i := 0; i < 3; i++ {
		postJSON(t, url+"/v1/cache/sim", CacheSimRequest{Trace: []TraceAccess{{Addr: 0x40}}})
	}
	getURL(t, url+"/v1/homework")
	getURL(t, url+"/v1/nope")
}

// varsShape renders /debug/vars as one line per key: the key, its JSON
// type, and for objects the sorted dotted paths of every field. Keys of
// by_status (exact HTTP codes) are shape; the keys of a latency
// histogram's buckets depend on timing, so the walk stops there.
func varsShape(t *testing.T, raw []byte) []string {
	t.Helper()
	vars := decode[map[string]any](t, raw)
	var lines []string
	for key, v := range vars {
		var paths []string
		var walk func(prefix string, v any)
		walk = func(prefix string, v any) {
			m, ok := v.(map[string]any)
			if !ok {
				return
			}
			for k, fv := range m {
				paths = append(paths, prefix+k)
				if k != "buckets" {
					walk(prefix+k+".", fv)
				}
			}
		}
		walk("", v)
		sort.Strings(paths)
		typ := "number"
		switch v.(type) {
		case map[string]any:
			typ = "object"
		case bool:
			typ = "bool"
		case string:
			typ = "string"
		}
		lines = append(lines, strings.TrimSpace(key+"\t"+typ+" "+strings.Join(paths, " ")))
	}
	sort.Strings(lines)
	return lines
}

// TestDebugVarsShapeGolden pins /debug/vars's keys and field names after
// a fixed script to testdata/debugvars_shape.golden, recorded before
// /debug/vars became a view of the registry. The one allowed difference
// is latency_ms.max, which the registry does not keep.
func TestDebugVarsShapeGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	debugVarsScript(t, ts.URL)
	_, raw := getURL(t, ts.URL+"/debug/vars")
	golden, err := os.ReadFile("testdata/debugvars_shape.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	for i, line := range want {
		want[i] = strings.Replace(line, " latency_ms.max", "", 1)
	}
	got := varsShape(t, raw)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/debug/vars shape drifted\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDebugVarsMatchesMetrics: /debug/vars and /metrics are two views
// of one store. On a quiesced server every route's requests, by_status
// and latency buckets in /debug/vars equal its labd_responses_total,
// labd_request_duration_seconds_count and _bucket lines, and the
// scheduler and cache totals agree.
func TestDebugVarsMatchesMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	debugVarsScript(t, ts.URL)
	doRequest(t, "POST", ts.URL+"/v1/life/run", []byte(`{"rows":`), "") // 400
	getURL(t, ts.URL+"/healthz")
	getURL(t, ts.URL+"/debug/vars")
	getURL(t, ts.URL+"/metrics")

	vars, prom := quiescedViews(t, s)
	routes, series := 0, 0
	for key, raw := range vars {
		route, ok := strings.CutPrefix(key, "labd.endpoint.")
		if !ok {
			continue
		}
		routes++
		ev := decode[endpointVars](t, raw)
		label := obs.Label("route", route)
		var sum int64
		for code, n := range ev.ByStatus {
			series++
			sum += n
			name := "labd_responses_total{" + label + "," + obs.Label("status", code) + "}"
			if got := prom[name]; got != float64(n) {
				t.Errorf("%s = %v, /debug/vars by_status says %d", name, got, n)
			}
		}
		if sum != ev.Requests {
			t.Errorf("%s: by_status sums to %d, requests = %d", route, sum, ev.Requests)
		}
		// The buckets are per-interval counts at the bounds /metrics
		// prints cumulatively; accumulate and compare every bound.
		var cum int64
		for i := 0; i <= obs.ExpositionBuckets; i++ {
			dv, le := "inf", "+Inf"
			if i < obs.ExpositionBuckets {
				b := obs.ExpositionBound(i)
				dv = "le_" + strconv.FormatFloat(float64(b)/1e6, 'f', -1, 64) + "ms"
				le = fmt.Sprintf("%g", float64(b)/1e9)
			}
			cum += ev.LatencyMs.Buckets[dv]
			name := "labd_request_duration_seconds_bucket{" + label + `,le="` + le + `"}`
			if got := prom[name]; got != float64(cum) {
				t.Errorf("%s = %v, /debug/vars buckets accumulate to %d", name, got, cum)
			}
		}
		name := "labd_request_duration_seconds_count{" + label + "}"
		if got := prom[name]; got != float64(cum) || cum != ev.Requests {
			t.Errorf("%s = %v; /debug/vars: %d in buckets, %d requests", name, got, cum, ev.Requests)
		}
	}
	// Every response series /metrics exports appears in /debug/vars.
	promSeries := 0
	for name := range prom {
		if strings.HasPrefix(name, "labd_responses_total{") {
			promSeries++
		}
	}
	if routes != 7 || series != promSeries {
		t.Errorf("/debug/vars has %d routes and %d response series, /metrics %d series; want 7 routes",
			routes, series, promSeries)
	}

	// Scheduler and cache totals: the same counters behind both views.
	field := func(key, name string) float64 {
		v, _ := decode[map[string]any](t, vars[key])[name].(float64)
		return v
	}
	for _, c := range []struct {
		metric string
		vars   float64
	}{
		{"labd_requests_total", decode[float64](t, vars["labd.total_requests"])},
		{"labd_workers", decode[float64](t, vars["labd.workers"])},
		{"labd_queue_hwm", decode[float64](t, vars["labd.queue_hwm"])},
		{"labd_scheduler_submitted_total", field("labd.scheduler", "submitted")},
		{"labd_scheduler_completed_total", field("labd.scheduler", "completed")},
		{`labd_cache_hits_total{endpoint="cache"}`, field("labd.cache.cache", "hits")},
		{`labd_cache_misses_total{endpoint="cache"}`, field("labd.cache.cache", "misses")},
	} {
		if got, ok := prom[c.metric]; !ok || got != c.vars {
			t.Errorf("%s = %v (present %v), /debug/vars says %v", c.metric, got, ok, c.vars)
		}
	}
}

// TestRequestIDHeader checks every response carries a distinct
// X-Labd-Request-Id — including cache hits, whose bodies never touch a
// handler — so access-log lines join to responses one-to-one.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, _ := getURL(t, ts.URL+"/v1/homework?topic=circuits&seed=9&n=1")
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		id := resp.Header.Get(requestIDHeader)
		if id == "" {
			t.Fatalf("request %d: no %s header", i, requestIDHeader)
		}
		if seen[id] {
			t.Fatalf("request id %q repeated", id)
		}
		seen[id] = true
		if i > 0 && resp.Header.Get(cacheHeader) != "hit" {
			t.Fatalf("request %d: cache %q, want hit", i, resp.Header.Get(cacheHeader))
		}
	}
}

// TestServerTrace runs traffic with a Trace attached and validates the
// exported timeline: an "http" lane of request/marshal X spans and one
// lane per scheduler worker carrying queue-wait/handler spans.
func TestServerTrace(t *testing.T) {
	tr := obs.New()
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Trace: tr})

	for i := 0; i < 3; i++ {
		resp, _ := getURL(t, ts.URL+fmt.Sprintf("/v1/homework?topic=circuits&seed=%d&n=1", i))
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace failed validation: %v", err)
	}
	httpSeq := sum.PerLane["http"]
	if len(httpSeq) == 0 {
		t.Fatalf("no http lane (lanes: %v)", sum.Lanes)
	}
	var requests, marshals int
	for _, e := range httpSeq {
		switch e {
		case "request/X":
			requests++
		case "marshal/X":
			marshals++
		default:
			t.Fatalf("unexpected http-lane event %q", e)
		}
	}
	if requests != 3 || marshals != 3 {
		t.Fatalf("http lane has %d request and %d marshal spans, want 3 and 3", requests, marshals)
	}
	// Worker lanes: every handler ran somewhere, with a queue-wait span
	// preceding it on the same lane.
	var handlers int
	for lane, seq := range sum.PerLane {
		if !strings.HasPrefix(lane, "worker ") {
			continue
		}
		for _, e := range seq {
			if e == "handler/X" {
				handlers++
			}
		}
	}
	if handlers != 3 {
		t.Fatalf("worker lanes carry %d handler spans, want 3", handlers)
	}
}
