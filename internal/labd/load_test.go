package labd

// The capstone test: the daemon is itself the course's parallel program,
// and this is its Lab 10 stress harness. Hundreds of concurrent mixed
// requests hit a small worker pool behind a small bounded queue, and the
// accounting must reconcile exactly: every request is answered exactly
// once, queue-full requests get 429, the expvar counters sum to the
// requests served, and shutdown drains everything in flight. Run with
// -race; the scheduler, metrics, and handlers are all exercised in
// parallel here.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cs31/internal/obs"
)

// loadRequest issues one request of the given kind and returns the final
// HTTP status plus the endpoint metric key it should be accounted under.
func loadRequest(t *testing.T, baseURL string, kind int) (status int, endpoint string) {
	t.Helper()
	switch kind % 7 {
	case 0:
		resp, _ := postJSON(t, baseURL+"/v1/asm/run", AsmRunRequest{
			Source: "main:\n    movl $0, %ebx\n    movl $1, %eax\n    int $0x80\n",
		})
		return resp.StatusCode, "POST /v1/asm/run"
	case 1:
		resp, _ := postJSON(t, baseURL+"/v1/minic/compile", MinicCompileRequest{
			Source: "int main() { return 3; }",
		})
		return resp.StatusCode, "POST /v1/minic/compile"
	case 2:
		resp, _ := postJSON(t, baseURL+"/v1/cache/sim", CacheSimRequest{
			SizeBytes: 1024, BlockSize: 64, Workload: "colmajor", Rows: 32, Cols: 32,
		})
		return resp.StatusCode, "POST /v1/cache/sim"
	case 3:
		resp, _ := postJSON(t, baseURL+"/v1/vm/sim", VMSimRequest{
			Trace: []VMAccess{{Pid: 1, Addr: 0}, {Pid: 2, Addr: 512}, {Pid: 1, Addr: 1024}},
		})
		return resp.StatusCode, "POST /v1/vm/sim"
	case 4:
		resp, _ := postJSON(t, baseURL+"/v1/life/run", LifeRunRequest{
			Rows: 24, Cols: 24, Iters: 6, Threads: 2,
		})
		return resp.StatusCode, "POST /v1/life/run"
	case 5:
		resp, _ := getURL(t, baseURL+"/v1/homework?topic=binary-conversion&n=1&seed=9")
		return resp.StatusCode, "GET /v1/homework"
	default:
		resp, _ := getURL(t, baseURL+"/v1/survey/figure1?students=30")
		return resp.StatusCode, "GET /v1/survey/figure1"
	}
}

func TestLoadMixedConcurrentRequests(t *testing.T) {
	const totalRequests = 280

	// Memoization off: this test's claims are about the scheduler — every
	// request submits or is rejected, the queue overflows under pressure —
	// and a cache would collapse the 7 identical request groups into 7
	// computes. TestLoadCachedMixedRequests covers the memoized path.
	s, ts := newTestServer(t, Config{
		Workers:        4,
		QueueDepth:     8,
		DefaultTimeout: 30 * time.Second,
		Cache:          CacheConfig{MaxBytes: -1},
	})

	type tally struct {
		mu       sync.Mutex
		byStatus map[int]int
		byEP     map[string]map[int]int
	}
	tl := &tally{byStatus: map[int]int{}, byEP: map[string]map[int]int{}}

	var wg sync.WaitGroup
	for i := 0; i < totalRequests; i++ {
		wg.Add(1)
		go func(kind int) {
			defer wg.Done()
			status, ep := loadRequest(t, ts.URL, kind)
			tl.mu.Lock()
			defer tl.mu.Unlock()
			tl.byStatus[status]++
			if tl.byEP[ep] == nil {
				tl.byEP[ep] = map[int]int{}
			}
			tl.byEP[ep][status]++
		}(i)
	}
	wg.Wait()

	// Every request was answered exactly once, with 200 or 429 only.
	answered := 0
	for status, n := range tl.byStatus {
		answered += n
		if status != http.StatusOK && status != http.StatusTooManyRequests {
			t.Errorf("unexpected status %d x%d", status, n)
		}
	}
	if answered != totalRequests {
		t.Fatalf("answered %d requests, want %d", answered, totalRequests)
	}
	if tl.byStatus[http.StatusOK] == 0 {
		t.Error("no request succeeded")
	}
	if tl.byStatus[http.StatusTooManyRequests] == 0 {
		t.Error("queue never overflowed — backpressure untested; shrink the pool")
	}

	// Scheduler accounting: nothing lost, nothing double-served. Each
	// request was either admitted (and, with no timeouts, completed) or
	// rejected with 429.
	st := s.SchedStats()
	if st.Submitted+st.Rejected != totalRequests {
		t.Errorf("submitted %d + rejected %d != %d", st.Submitted, st.Rejected, totalRequests)
	}
	if st.Skipped != 0 {
		t.Errorf("skipped = %d, want 0 (no request timed out)", st.Skipped)
	}
	if st.Completed != st.Submitted {
		t.Errorf("completed %d != submitted %d", st.Completed, st.Submitted)
	}
	if int(st.Completed) != tl.byStatus[http.StatusOK] {
		t.Errorf("completed %d != client-observed 200s %d", st.Completed, tl.byStatus[http.StatusOK])
	}
	if int(st.Rejected) != tl.byStatus[http.StatusTooManyRequests] {
		t.Errorf("rejected %d != client-observed 429s %d", st.Rejected, tl.byStatus[http.StatusTooManyRequests])
	}

	// The metrics store saw exactly the issued requests, and both of
	// its views reconcile with the clients route by route and status by
	// status. /debug/vars renders before its own request is counted.
	resp, raw := getURL(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("parse /debug/vars: %v", err)
	}
	if got := decode[int64](t, vars["labd.total_requests"]); got != totalRequests {
		t.Errorf("labd.total_requests = %d, want %d", got, totalRequests)
	}
	var expvarTotal int64
	for key, v := range vars {
		name, ok := strings.CutPrefix(key, "labd.endpoint.")
		if !ok || !strings.Contains(name, "/v1/") {
			continue
		}
		ep := decode[endpointVars](t, v)
		expvarTotal += ep.Requests
		for status, clientCount := range tl.byEP[name] {
			if got := ep.ByStatus[fmt.Sprint(status)]; got != int64(clientCount) {
				t.Errorf("%s status %d: expvar %d, clients saw %d", name, status, got, clientCount)
			}
		}
	}
	if expvarTotal != totalRequests {
		t.Errorf("expvar endpoint counters sum to %d, want %d", expvarTotal, totalRequests)
	}

	// /metrics, scraped after the /debug/vars request finished, counts
	// that request too.
	resp, raw = getURL(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	prom := promSamples(t, raw)
	if got := prom["labd_requests_total"]; got != totalRequests+1 {
		t.Errorf("labd_requests_total = %v, want %d", got, totalRequests+1)
	}
	var promTotal float64
	for name, v := range prom {
		if strings.HasPrefix(name, `labd_responses_total{route="`) && strings.Contains(name, "/v1/") {
			promTotal += v
		}
	}
	if promTotal != totalRequests {
		t.Errorf("/v1 labd_responses_total series sum to %v, want %d", promTotal, totalRequests)
	}
	for route, byStatus := range tl.byEP {
		label := obs.Label("route", route)
		var routeTotal int
		for status, clientCount := range byStatus {
			routeTotal += clientCount
			name := "labd_responses_total{" + label + "," + obs.Label("status", fmt.Sprint(status)) + "}"
			if got := prom[name]; got != float64(clientCount) {
				t.Errorf("%s = %v, clients saw %d", name, got, clientCount)
			}
		}
		name := "labd_request_duration_seconds_count{" + label + "}"
		if got := prom[name]; got != float64(routeTotal) {
			t.Errorf("%s = %v, clients sent %d", name, got, routeTotal)
		}
	}
}

func TestShutdownDrainsInFlightJobs(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	ts := newUnmanagedServer(t, s)

	// A program slow enough (~600k steps) that jobs are still queued and
	// running when shutdown begins.
	slow := AsmRunRequest{Source: `main:
    movl $200000, %ecx
loop:
    decl %ecx
    cmpl $0, %ecx
    jne loop
    movl $1, %eax
    movl $0, %ebx
    int $0x80
`}

	const jobs = 10
	statuses := make(chan int, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A distinct step budget per job keeps the memoization layer
			// from coalescing them: the drain claim is about ten separate
			// jobs in the scheduler, not one flight with nine waiters.
			req := slow
			req.MaxSteps = int64(700_000 + i)
			resp, _ := postJSON(t, ts.URL+"/v1/asm/run", req)
			statuses <- resp.StatusCode
		}(i)
	}

	// Wait until every job is inside the scheduler, then pull the plug.
	waitFor(t, func() bool { return s.SchedStats().Submitted == jobs })
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Errorf("in-flight job answered %d during drain, want 200", status)
		}
	}
	st := s.SchedStats()
	if st.Completed != jobs {
		t.Errorf("drained %d of %d in-flight jobs", st.Completed, jobs)
	}

	// After the drain, new work is refused with 503.
	resp, _ := postJSON(t, ts.URL+"/v1/asm/run", slow)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain status %d, want 503", resp.StatusCode)
	}
}

// cachedLoadRequest issues one request of the given kind against baseURL.
// Repeats (unique=false) use one fixed request per kind — the classroom
// pattern of whole sections submitting identical work — while unique
// requests fold the discriminator d into a request field so every one is
// a genuine cache miss. Returns the HTTP status, the response body, and a
// replay key identifying the request for the twin-server differential.
func cachedLoadRequest(t *testing.T, baseURL string, kind int, unique bool, d int) (int, []byte, string) {
	t.Helper()
	post := func(path string, body any) (int, []byte, string) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, got := postJSON(t, baseURL+path, body)
		return resp.StatusCode, got, "POST " + path + " " + string(raw)
	}
	get := func(path string) (int, []byte, string) {
		resp, got := getURL(t, baseURL+path)
		return resp.StatusCode, got, "GET " + path
	}
	if !unique {
		d = 0
	}
	switch kind % 7 {
	case 0:
		return post("/v1/asm/run", AsmRunRequest{
			Source: fmt.Sprintf("main:\n    movl $%d, %%ebx\n    movl $1, %%eax\n    int $0x80\n", d%100),
		})
	case 1:
		return post("/v1/minic/compile", MinicCompileRequest{
			Source: fmt.Sprintf("int main() { return %d; }", d%100), Run: true,
		})
	case 2:
		return post("/v1/cache/sim", CacheSimRequest{
			Workload: "colmajor", Rows: 16 + d, Cols: 16,
		})
	case 3:
		// d folds into the page index (64-page default address space).
		return post("/v1/vm/sim", VMSimRequest{
			Trace: []VMAccess{{Pid: 1, Addr: uint64(d%64) * 256}, {Pid: 2, Addr: 512}, {Pid: 1, Addr: 1024}},
		})
	case 4:
		return post("/v1/life/run", LifeRunRequest{
			Rows: 16, Cols: 16, Iters: 4, Threads: 2, Seed: int64(1000 + d),
		})
	case 5:
		return get(fmt.Sprintf("/v1/homework?topic=binary-conversion&n=1&seed=%d", 1000+d))
	default:
		return get(fmt.Sprintf("/v1/survey/figure1?students=20&seed=%d", 1000+d))
	}
}

// TestLoadCachedMixedRequests is the memoized counterpart of the mixed
// load test: 280 concurrent requests, ~70% of them repeats of 7 fixed
// requests, against a cache-enabled server. Every response must be
// byte-identical to a cache-disabled twin's answer for the same request,
// the aggregate hit ratio must clear 0.5, and the /debug/vars cache
// counters must reconcile exactly with the requests issued.
func TestLoadCachedMixedRequests(t *testing.T) {
	const totalRequests = 280

	// Queues deep enough that nothing bounces: this test's claims are
	// about cache correctness under concurrency, and a 429 has no body to
	// compare. Backpressure is TestLoadMixedConcurrentRequests's job.
	s, ts := newTestServer(t, Config{
		Workers: 4, QueueDepth: totalRequests, DefaultTimeout: 30 * time.Second,
	})
	_, twin := newTestServer(t, Config{
		Workers: 4, QueueDepth: totalRequests, DefaultTimeout: 30 * time.Second,
		Cache: CacheConfig{MaxBytes: -1},
	})

	type result struct {
		key  string
		body []byte
	}
	results := make([]result, totalRequests)
	var wg sync.WaitGroup
	for i := 0; i < totalRequests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			unique := i%10 >= 7 // ~70% repeats
			status, body, key := cachedLoadRequest(t, ts.URL, i%7, unique, i)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, body)
				return
			}
			results[i] = result{key: key, body: body}
		}(i)
	}
	wg.Wait()

	// Zero byte-level divergence: replay each distinct request once
	// against the cache-disabled twin and hold every cached-server
	// response to the twin's bytes.
	reference := make(map[string][]byte)
	for i := 0; i < totalRequests; i++ {
		r := results[i]
		if r.key == "" {
			continue // already reported as a failed request
		}
		if _, ok := reference[r.key]; !ok {
			unique := i%10 >= 7
			status, body, _ := cachedLoadRequest(t, twin.URL, i%7, unique, i)
			if status != http.StatusOK {
				t.Fatalf("twin request %d: status %d: %s", i, status, body)
			}
			reference[r.key] = body
		}
		if !bytes.Equal(r.body, reference[r.key]) {
			t.Errorf("request %d (%s): cached response diverges from twin recompute", i, r.key)
		}
	}

	// Counters reconcile: every request consulted exactly one endpoint
	// cache, so hits+misses+coalesced across /debug/vars equals the
	// requests issued, and the hit ratio clears the repeat rate's floor.
	resp, raw := getURL(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("parse /debug/vars: %v", err)
	}
	var agg CacheSnapshot
	if err := json.Unmarshal(vars["labd.cache"], &agg); err != nil {
		t.Fatalf("parse labd.cache: %v", err)
	}
	if total := agg.Hits + agg.Misses + agg.Coalesced; total != totalRequests {
		t.Errorf("hits %d + misses %d + coalesced %d = %d, want %d",
			agg.Hits, agg.Misses, agg.Coalesced, total, totalRequests)
	}
	if agg.HitRatio <= 0.5 {
		t.Errorf("aggregate hit ratio %.3f, want > 0.5 with ~70%% repeats", agg.HitRatio)
	}

	// The snapshot API agrees with the expvar surface.
	var fromStats CacheSnapshot
	for _, cs := range s.CacheStats() {
		fromStats.Hits += cs.Hits
		fromStats.Misses += cs.Misses
		fromStats.Coalesced += cs.Coalesced
	}
	if fromStats.Hits != agg.Hits || fromStats.Misses != agg.Misses || fromStats.Coalesced != agg.Coalesced {
		t.Errorf("CacheStats %+v disagrees with /debug/vars %+v", fromStats, agg)
	}
}
