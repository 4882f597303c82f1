package labd

// The memoization layer's acceptance suite: per-endpoint differentials
// proving hit, miss, bypass, and coalesced responses are byte-identical
// to cold recompute, the singleflight guarantees (one compute, no worker
// slots held by waiters), and the observability surface.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cs31/internal/obs"
)

// doRequest issues one request with an optional Cache-Control header and
// returns the response plus its full body.
func doRequest(t *testing.T, method, url string, body []byte, cacheControl string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if cacheControl != "" {
		req.Header.Set("Cache-Control", cacheControl)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// endpointProbes is one deterministic request per cached endpoint.
var endpointProbes = []struct {
	endpoint string
	method   string
	path     string
	body     string
}{
	{"asm", "POST", "/v1/asm/run", `{"source":"main:\n    movl $7, %ebx\n    movl $1, %eax\n    int $0x80\n"}`},
	{"minic", "POST", "/v1/minic/compile", `{"source":"int main() { return 3; }","run":true}`},
	{"cache", "POST", "/v1/cache/sim", `{"workload":"rowmajor","rows":8,"cols":8,"table_n":4}`},
	{"vm", "POST", "/v1/vm/sim", `{"trace":[{"pid":1,"addr":0},{"pid":1,"addr":256},{"pid":2,"addr":0}]}`},
	{"life", "POST", "/v1/life/run", `{"rows":16,"cols":16,"iters":4,"threads":2}`},
	{"homework", "GET", "/v1/homework?topic=binary-conversion&n=2&seed=5", ""},
	{"survey", "GET", "/v1/survey/figure1?students=25&seed=7", ""},
}

// TestCacheDifferentialAllEndpoints: for every endpoint, the miss that
// populates the cache, the hits that follow, a no-cache bypass, and a
// cache-disabled twin server all produce byte-identical responses.
func TestCacheDifferentialAllEndpoints(t *testing.T) {
	_, cached := newTestServer(t, Config{Workers: 2, DefaultTimeout: 30 * time.Second})
	_, twin := newTestServer(t, Config{Workers: 2, DefaultTimeout: 30 * time.Second,
		Cache: CacheConfig{Disable: true}})

	for _, probe := range endpointProbes {
		var body []byte
		if probe.body != "" {
			body = []byte(probe.body)
		}
		resp, miss := doRequest(t, probe.method, cached.URL+probe.path, body, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: miss status %d: %s", probe.endpoint, resp.StatusCode, miss)
		}
		if got := resp.Header.Get(cacheHeader); got != "miss" {
			t.Errorf("%s: first request %s = %q, want miss", probe.endpoint, cacheHeader, got)
		}
		for i := 0; i < 2; i++ {
			resp, hit := doRequest(t, probe.method, cached.URL+probe.path, body, "")
			if got := resp.Header.Get(cacheHeader); got != "hit" {
				t.Errorf("%s: repeat %d %s = %q, want hit", probe.endpoint, i, cacheHeader, got)
			}
			if !bytes.Equal(hit, miss) {
				t.Errorf("%s: hit body diverges from miss body:\n hit: %s\nmiss: %s", probe.endpoint, hit, miss)
			}
		}
		resp, bypass := doRequest(t, probe.method, cached.URL+probe.path, body, "no-cache")
		if got := resp.Header.Get(cacheHeader); got != "bypass" {
			t.Errorf("%s: no-cache %s = %q, want bypass", probe.endpoint, cacheHeader, got)
		}
		if !bytes.Equal(bypass, miss) {
			t.Errorf("%s: bypass body diverges from miss body", probe.endpoint)
		}
		resp, cold := doRequest(t, probe.method, twin.URL+probe.path, body, "")
		if got := resp.Header.Get(cacheHeader); got != "" {
			t.Errorf("%s: cache-disabled twin sent %s = %q, want none", probe.endpoint, cacheHeader, got)
		}
		if !bytes.Equal(cold, miss) {
			t.Errorf("%s: twin recompute diverges from cached response:\ntwin: %s\ncache: %s", probe.endpoint, cold, miss)
		}
	}
}

// TestEncodeBodyMatchesWriteJSON: the bytes a miss caches are the bytes
// writeJSON streams, for strings that HTML escaping and the U+2028/U+2029
// escapes rewrite, nested and empty containers, and a top-level scalar.
// They hold no spare capacity, since the memo charges only their length.
func TestEncodeBodyMatchesWriteJSON(t *testing.T) {
	values := []any{
		map[string]any{"out": "<a href=\"x\">&amp;</a>  \x00é", "n": 3, "f": 0.1},
		MinicCompileResponse{Assembly: "\tmovl $1, %eax\n", Stdout: "a < b && c > d\u2028\n", Steps: 7},
		struct {
			A []int          `json:"a"`
			B map[string]int `json:"b"`
			C []struct{}     `json:"c"`
		}{A: []int{}, B: map[string]int{}, C: []struct{}{{}, {}}},
		"top-level <string>",
		42,
	}
	for _, v := range values {
		got, err := encodeBody(v)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if !bytes.Equal(got, rec.Body.Bytes()) {
			t.Errorf("encodeBody(%#v):\n%q\nwriteJSON:\n%q", v, got, rec.Body.Bytes())
		}
		if cap(got) != len(got) {
			t.Errorf("encodeBody(%#v) keeps %d bytes for %d", v, cap(got), len(got))
		}
	}
}

// TestCacheNormalizesDefaults: a request spelling out the documented
// defaults hits the entry populated by the all-defaults request — the
// canonical keys normalize before hashing.
func TestCacheNormalizesDefaults(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, DefaultTimeout: 30 * time.Second})
	pairs := []struct {
		endpoint     string
		method       string
		implicit     string
		implicitBody string
		explicit     string
		explicitBody string
	}{
		{"life", "POST", "/v1/life/run", `{}`,
			"/v1/life/run", `{"rows":32,"cols":32,"iters":20,"seed":31,"density":0.3,"threads":1}`},
		{"cache", "POST", "/v1/cache/sim", `{"workload":"colmajor"}`,
			"/v1/cache/sim", `{"workload":"colmajor","size_bytes":1024,"block_size":16,"assoc":1,"write":"back","alloc":"allocate","repl":"lru","rows":64,"cols":64}`},
		{"homework", "GET", "/v1/homework?topic=binary-conversion", "",
			"/v1/homework?topic=binary-conversion&seed=31&n=1", ""},
		{"survey", "GET", "/v1/survey/figure1", "",
			"/v1/survey/figure1?seed=2022&students=120", ""},
	}
	for _, p := range pairs {
		var implicitBody, explicitBody []byte
		if p.implicitBody != "" {
			implicitBody = []byte(p.implicitBody)
		}
		if p.explicitBody != "" {
			explicitBody = []byte(p.explicitBody)
		}
		resp, first := doRequest(t, p.method, ts.URL+p.implicit, implicitBody, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", p.endpoint, resp.StatusCode, first)
		}
		resp, second := doRequest(t, p.method, ts.URL+p.explicit, explicitBody, "")
		if got := resp.Header.Get(cacheHeader); got != "hit" {
			t.Errorf("%s: explicit-defaults request %s = %q, want hit", p.endpoint, cacheHeader, got)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: default-normalized responses diverge", p.endpoint)
		}
	}
}

// TestCacheCoalescing is the worker-slot proof: a pool of one worker and
// a one-deep queue serves 8 concurrent identical requests, which is only
// possible if the 7 waiters coalesce in their HTTP goroutines instead of
// submitting — scheduler stats must show exactly one submit, one compute.
func TestCacheCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 30 * time.Second})

	// Tens of milliseconds of serial life (2000 generations of 1024
	// 64-cell words) keep the flight open while the waiters pile on;
	// correctness does not depend on the timing, only the coalesced count
	// does, and that is asserted as hits+coalesced.
	body := []byte(`{"rows":256,"cols":256,"iters":2000,"seed":5}`)

	leaderDone := make(chan []byte, 1)
	go func() {
		_, raw := doRequest(t, "POST", ts.URL+"/v1/life/run", body, "")
		leaderDone <- raw
	}()
	waitFor(t, func() bool {
		for _, cs := range s.CacheStats() {
			if cs.Endpoint == "life" && cs.Misses == 1 {
				return true
			}
		}
		return false
	})

	const waiters = 7
	var wg sync.WaitGroup
	bodies := make([][]byte, waiters)
	statuses := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := doRequest(t, "POST", ts.URL+"/v1/life/run", body, "")
			statuses[i] = resp.StatusCode
			bodies[i] = raw
		}(i)
	}
	wg.Wait()
	leaderBody := <-leaderDone

	for i := 0; i < waiters; i++ {
		if statuses[i] != http.StatusOK {
			t.Errorf("waiter %d: status %d (a queued waiter would have hit 429)", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], leaderBody) {
			t.Errorf("waiter %d: body diverges from leader's", i)
		}
	}
	st := s.SchedStats()
	if st.Submitted != 1 || st.Completed != 1 {
		t.Errorf("scheduler saw %d submits / %d completions, want exactly 1 compute", st.Submitted, st.Completed)
	}
	for _, cs := range s.CacheStats() {
		if cs.Endpoint != "life" {
			continue
		}
		if cs.Misses != 1 {
			t.Errorf("life misses = %d, want 1", cs.Misses)
		}
		if cs.Hits+cs.Coalesced != waiters {
			t.Errorf("life hits %d + coalesced %d != %d waiters", cs.Hits, cs.Coalesced, waiters)
		}
	}
}

// TestCacheErrorsNotCached: a failing request recomputes every time and
// leaves nothing resident.
func TestCacheErrorsNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	bad := []byte(`{"partition":"diagonal"}`)
	for i := 0; i < 2; i++ {
		resp, _ := doRequest(t, "POST", ts.URL+"/v1/life/run", bad, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want 400", i, resp.StatusCode)
		}
		if got := resp.Header.Get(cacheHeader); got != "miss" {
			t.Errorf("request %d: %s = %q, want miss (errors never become hits)", i, cacheHeader, got)
		}
	}
	for _, cs := range s.CacheStats() {
		if cs.Endpoint == "life" {
			if cs.Entries != 0 || cs.Bytes != 0 {
				t.Errorf("error response resident: %+v", cs)
			}
			if cs.Misses != 2 {
				t.Errorf("misses = %d, want 2 (each error recomputes)", cs.Misses)
			}
		}
	}
}

// TestCacheSpeedupRequestsBypass: a life request with a timing table is
// not a deterministic function of the request, so it never caches.
func TestCacheSpeedupRequestsBypass(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, DefaultTimeout: 30 * time.Second})
	body := []byte(`{"rows":16,"cols":16,"iters":2,"threads":2,"speedup":true}`)
	for i := 0; i < 2; i++ {
		resp, _ := doRequest(t, "POST", ts.URL+"/v1/life/run", body, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get(cacheHeader); got != "bypass" {
			t.Errorf("speedup request %d: %s = %q, want bypass", i, cacheHeader, got)
		}
	}
	for _, cs := range s.CacheStats() {
		if cs.Endpoint == "life" && (cs.Hits != 0 || cs.Misses != 0 || cs.Entries != 0) {
			t.Errorf("speedup requests touched the cache: %+v", cs)
		}
	}
}

// TestCacheNoStoreBypasses: no-store is honored like no-cache — the
// request neither reads a primed entry nor stores a new one.
func TestCacheNoStoreBypasses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := []byte(`{"rows":8,"cols":8,"iters":2}`)
	resp, _ := doRequest(t, "POST", ts.URL+"/v1/life/run", body, "no-store")
	if got := resp.Header.Get(cacheHeader); got != "bypass" {
		t.Errorf("%s = %q, want bypass", cacheHeader, got)
	}
	for _, cs := range s.CacheStats() {
		if cs.Endpoint == "life" && cs.Entries != 0 {
			t.Errorf("no-store populated the cache: %+v", cs)
		}
	}
}

// TestCacheDisabledEndpoint: per-endpoint disable leaves that endpoint
// uncached (no header) while the others stay memoized.
func TestCacheDisabledEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2,
		Cache: CacheConfig{DisableEndpoints: []string{"life"}}})
	body := []byte(`{"rows":8,"cols":8,"iters":2}`)
	for i := 0; i < 2; i++ {
		resp, _ := doRequest(t, "POST", ts.URL+"/v1/life/run", body, "")
		if got := resp.Header.Get(cacheHeader); got != "" {
			t.Errorf("disabled endpoint sent %s = %q", cacheHeader, got)
		}
	}
	asmBody := []byte(endpointProbes[0].body)
	doRequest(t, "POST", ts.URL+"/v1/asm/run", asmBody, "")
	resp, _ := doRequest(t, "POST", ts.URL+"/v1/asm/run", asmBody, "")
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("asm stayed uncached alongside disabled life: %s = %q", cacheHeader, got)
	}
}

// TestCacheFullyDisabled: Disable and negative MaxBytes both turn the
// layer off entirely.
func TestCacheFullyDisabled(t *testing.T) {
	for name, cc := range map[string]CacheConfig{
		"disable-flag":   {Disable: true},
		"negative-bytes": {MaxBytes: -1},
	} {
		s := New(Config{Workers: 1, Cache: cc})
		if got := len(s.CacheStats()); got != 0 {
			t.Errorf("%s: %d endpoint caches, want 0", name, got)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.Shutdown(ctx)
		cancel()
	}
}

// TestPprofGatedByFlag: the profiling routes exist only when EnablePprof
// is set; off (the default) they 404 like any unknown path. On, each
// route's requests are counted under its own pattern in both metrics
// views, not beside real 404s as (unmatched).
func TestPprofGatedByFlag(t *testing.T) {
	_, off := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, _ := getURL(t, off.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("pprof disabled: GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	s, on := newTestServer(t, Config{Workers: 1, EnablePprof: true})
	paths := []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"}
	for _, path := range paths {
		resp, _ := getURL(t, on.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pprof enabled: GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	vars, prom := quiescedViews(t, s)
	for _, path := range paths {
		route := "GET " + path
		raw, ok := vars["labd.endpoint."+route]
		if !ok {
			t.Errorf("/debug/vars has no labd.endpoint.%s", route)
		} else if got := decode[endpointVars](t, raw).ByStatus["200"]; got != 1 {
			t.Errorf("labd.endpoint.%s by_status 200 = %d, want 1", route, got)
		}
		name := "labd_responses_total{" + obs.Label("route", route) + `,status="200"}`
		if got := prom[name]; got != 1 {
			t.Errorf("%s = %v, want 1", name, got)
		}
	}
	if raw, ok := vars["labd.endpoint.(unmatched)"]; ok {
		t.Errorf("pprof requests counted as (unmatched): %s", raw)
	}
}

// TestDebugVarsCacheSection: /debug/vars carries per-endpoint cache
// counters plus the aggregate, and they reconcile with the requests made.
func TestDebugVarsCacheSection(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := []byte(`{"rows":8,"cols":8,"iters":2}`)
	for i := 0; i < 3; i++ {
		doRequest(t, "POST", ts.URL+"/v1/life/run", body, "")
	}
	resp, raw := getURL(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("parse /debug/vars: %v", err)
	}
	if vars["labd.cache_enabled"] != true {
		t.Error("labd.cache_enabled missing or false")
	}
	lifeVars, ok := vars["labd.cache.life"].(map[string]any)
	if !ok {
		t.Fatalf("labd.cache.life missing: %v", vars)
	}
	if hits, misses := lifeVars["hits"].(float64), lifeVars["misses"].(float64); hits != 2 || misses != 1 {
		t.Errorf("life hits/misses = %v/%v, want 2/1", hits, misses)
	}
	if ratio := lifeVars["hit_ratio"].(float64); ratio < 0.6 || ratio > 0.7 {
		t.Errorf("life hit_ratio = %v, want 2/3", ratio)
	}
	if _, ok := vars["labd.cache"].(map[string]any); !ok {
		t.Error("aggregate labd.cache var missing")
	}
}
