package labd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// newUnmanagedServer serves s without registering a scheduler shutdown —
// for tests that drive the drain themselves.
func newUnmanagedServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// checked runs an endpoint's check on req, as register does before the
// key and the handler, and fails t if check refuses it.
func checked[Req any](t testing.TB, check func(Req) (Req, error), req Req) Req {
	t.Helper()
	req, err := check(req)
	if err != nil {
		t.Fatalf("check refused %+v: %v", req, err)
	}
	return req
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %T from %s: %v", v, raw, err)
	}
	return v
}

func TestAsmRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/asm/run", AsmRunRequest{
		Source: "main:\n    movl $7, %ebx\n    movl $1, %eax\n    int $0x80\n",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[AsmRunResponse](t, raw)
	if out.ExitStatus != 7 {
		t.Errorf("exit = %d, want 7", out.ExitStatus)
	}
	if out.Steps == 0 {
		t.Error("steps not reported")
	}
}

func TestAsmRunRejectsBadSource(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/asm/run", AsmRunRequest{Source: "not a program @@@"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if body := decode[errorBody](t, raw); body.Error == "" {
		t.Error("error body empty")
	}
}

func TestAsmRunStepBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/asm/run", AsmRunRequest{
		Source:   "main:\nloop:\n    jmp loop\n",
		MaxSteps: 100,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if body := decode[errorBody](t, raw); !strings.Contains(body.Error, "step budget") {
		t.Errorf("error %q does not mention the step budget", body.Error)
	}
}

func TestMinicCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/minic/compile", MinicCompileRequest{
		Source: "int main() { print_int(6 * 7); return 0; }",
		Run:    true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[MinicCompileResponse](t, raw)
	if !strings.Contains(out.Assembly, "main:") {
		t.Error("assembly missing main label")
	}
	if out.Stdout != "42" {
		t.Errorf("stdout = %q, want 42", out.Stdout)
	}
	if out.ExitStatus == nil || *out.ExitStatus != 0 {
		t.Errorf("exit status = %v, want 0", out.ExitStatus)
	}
}

func TestMinicCompileError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/minic/compile", MinicCompileRequest{
		Source: "int main() { this is not C",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestMinicNonASCIILetter400: a non-ASCII letter in mini-C source is a
// compile error. The lexer once looped on it, appending empty tokens
// until the whole daemon died of a fatal out-of-memory.
func TestMinicNonASCIILetter400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/minic/compile", MinicCompileRequest{Source: "int café = 1;"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got, want := decode[errorBody](t, raw).Error, "minic: line 1: unexpected character 'é'"; got != want {
		t.Errorf("error %q, want %q", got, want)
	}
}

func TestCacheSimEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Two accesses to the same block: miss then hit.
	resp, raw := postJSON(t, ts.URL+"/v1/cache/sim", CacheSimRequest{
		SizeBytes: 1024, BlockSize: 64, Assoc: 1,
		Trace: []TraceAccess{{Addr: 0x100}, {Addr: 0x104}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[CacheSimResponse](t, raw)
	if out.Stats.Hits != 1 || out.Stats.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", out.Stats.Hits, out.Stats.Misses)
	}
	if out.NumSets != 16 || out.OffsetBits != 6 {
		t.Errorf("organization: sets=%d offset=%d", out.NumSets, out.OffsetBits)
	}
}

func TestCacheSimWorkloadContrast(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rates := map[string]float64{}
	for _, wl := range []string{"rowmajor", "colmajor"} {
		resp, raw := postJSON(t, ts.URL+"/v1/cache/sim", CacheSimRequest{
			SizeBytes: 1024, BlockSize: 64, Workload: wl, Rows: 64, Cols: 64,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", wl, resp.StatusCode, raw)
		}
		rates[wl] = decode[CacheSimResponse](t, raw).HitRate
	}
	if rates["rowmajor"] <= rates["colmajor"] {
		t.Errorf("row-major (%v) should beat column-major (%v)", rates["rowmajor"], rates["colmajor"])
	}
}

func TestCacheSimBadConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/cache/sim", CacheSimRequest{
		SizeBytes: 100, BlockSize: 7, // not powers of two
		Trace: []TraceAccess{{Addr: 0}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestVMSimEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	trace := []VMAccess{}
	// Two processes touching the same virtual pages, with switches.
	for round := 0; round < 2; round++ {
		for pid := 1; pid <= 2; pid++ {
			for pg := uint64(0); pg < 4; pg++ {
				trace = append(trace, VMAccess{Pid: pid, Addr: pg * 256})
			}
		}
	}
	resp, raw := postJSON(t, ts.URL+"/v1/vm/sim", VMSimRequest{
		PageSize: 256, NumFrames: 8, TLBSize: 4, NumPages: 64, Trace: trace,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[VMSimResponse](t, raw)
	if out.Stats.Accesses != int64(len(trace)) {
		t.Errorf("accesses = %d, want %d", out.Stats.Accesses, len(trace))
	}
	if out.Stats.PageFaults == 0 || out.ContextSwitches == 0 {
		t.Errorf("faults=%d switches=%d, want both > 0", out.Stats.PageFaults, out.ContextSwitches)
	}
}

func TestLifeRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The serial and 4-thread runs of the same seed must agree — the
	// Lab 10 correctness invariant.
	var pops [2]int
	for i, threads := range []int{1, 4} {
		resp, raw := postJSON(t, ts.URL+"/v1/life/run", LifeRunRequest{
			Rows: 48, Cols: 48, Iters: 16, Seed: 7, Threads: threads,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("threads=%d: status %d: %s", threads, resp.StatusCode, raw)
		}
		out := decode[LifeRunResponse](t, raw)
		if out.Generations != 16 {
			t.Errorf("threads=%d: generations = %d, want 16", threads, out.Generations)
		}
		pops[i] = out.Population
	}
	if pops[0] != pops[1] {
		t.Errorf("serial population %d != parallel population %d", pops[0], pops[1])
	}
}

func TestLifeRunSpeedupReport(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/life/run", LifeRunRequest{
		Rows: 64, Cols: 64, Iters: 8, Threads: 4, Speedup: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[LifeRunResponse](t, raw)
	if len(out.Scaling) < 2 {
		t.Fatalf("scaling table has %d rows, want >= 2", len(out.Scaling))
	}
	if out.Scaling[0].Threads != 1 || out.Scaling[len(out.Scaling)-1].Threads != 4 {
		t.Errorf("scaling thread counts: %+v", out.Scaling)
	}
}

// TestLifeRunDistEngine: the message-passing engine behind the endpoint
// must agree with the serial and shared-memory runs of the same seed, and
// its speedup table measures rank scaling.
func TestLifeRunDistEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var pops [2]int
	var lives [2]int64
	for i, engine := range []string{"parallel", "dist"} {
		resp, raw := postJSON(t, ts.URL+"/v1/life/run", LifeRunRequest{
			Rows: 48, Cols: 48, Iters: 16, Seed: 7, Threads: 4, Engine: engine,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine=%s: status %d: %s", engine, resp.StatusCode, raw)
		}
		out := decode[LifeRunResponse](t, raw)
		pops[i] = out.Population
		lives[i] = out.LiveUpdates
	}
	if pops[0] != pops[1] {
		t.Errorf("parallel population %d != dist population %d", pops[0], pops[1])
	}
	if lives[0] != lives[1] {
		t.Errorf("parallel live updates %d != dist live updates %d", lives[0], lives[1])
	}

	resp, raw := postJSON(t, ts.URL+"/v1/life/run", LifeRunRequest{
		Rows: 64, Cols: 64, Iters: 8, Threads: 4, Engine: "dist", Speedup: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dist speedup: status %d: %s", resp.StatusCode, raw)
	}
	out := decode[LifeRunResponse](t, raw)
	if len(out.Scaling) < 2 {
		t.Fatalf("dist scaling table has %d rows, want >= 2", len(out.Scaling))
	}

	// Bad engine configurations are client errors.
	for _, req := range []LifeRunRequest{
		{Engine: "mpi"},
		{Engine: "dist", Partition: "cols", Threads: 2},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/life/run", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400: %s", req, resp.StatusCode, raw)
		}
	}
}

// TestLifeRunPacked: "packed" is accepted for compatibility and ignored —
// every board is bit-packed — so packed:true and packed:false return
// byte-identical bodies from one cache entry. The bodies are pinned: a
// change to the engines must not move a seeded board's population or
// live_updates (serial runs report no live_updates).
func TestLifeRunPacked(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ req, want string }{
		{`{}`, `{"rows":32,"cols":32,"generations":20,"population":193}`},
		{`{"rows":48,"cols":70,"threads":4}`,
			`{"rows":48,"cols":70,"generations":20,"population":527,"live_updates":14275}`},
		{`{"rows":48,"cols":70,"threads":4,"engine":"dist"}`,
			`{"rows":48,"cols":70,"generations":20,"population":527,"live_updates":14275}`},
	} {
		withPacked := func(v string) []byte {
			body := strings.TrimSuffix(c.req, "}")
			if body != "{" {
				body += ","
			}
			return []byte(body + `"packed":` + v + "}")
		}
		on, onRaw := doRequest(t, "POST", ts.URL+"/v1/life/run", withPacked("true"), "")
		off, offRaw := doRequest(t, "POST", ts.URL+"/v1/life/run", withPacked("false"), "")
		if on.StatusCode != http.StatusOK || off.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d / %d: %s", c.req, on.StatusCode, off.StatusCode, onRaw)
		}
		if !bytes.Equal(onRaw, offRaw) {
			t.Errorf("%s: packed:true body %q, packed:false body %q", c.req, onRaw, offRaw)
		}
		if got := off.Header.Get(cacheHeader); got != "hit" {
			t.Errorf("%s: packed:false after packed:true is a cache %q, want hit", c.req, got)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, onRaw); err != nil {
			t.Fatal(err)
		}
		if compact.String() != c.want {
			t.Errorf("%s: body %s, want %s", c.req, compact.String(), c.want)
		}
	}
}

func TestHomeworkEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := getURL(t, ts.URL+"/v1/homework")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	topics := decode[HomeworkResponse](t, raw).Topics
	if len(topics) == 0 {
		t.Fatal("no topics listed")
	}

	resp, raw = getURL(t, fmt.Sprintf("%s/v1/homework?topic=%s&n=2&seed=42", ts.URL, topics[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[HomeworkResponse](t, raw)
	if len(out.Problems) != 2 {
		t.Fatalf("got %d problems, want 2", len(out.Problems))
	}
	if out.Problems[0].Prompt == "" || out.Problems[0].Solution == "" {
		t.Error("problem missing prompt or solution")
	}

	// Student version must omit the answer key.
	resp, raw = getURL(t, fmt.Sprintf("%s/v1/homework?topic=%s&answers=false", ts.URL, topics[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out = decode[HomeworkResponse](t, raw)
	if len(out.Problems) != 1 || out.Problems[0].Solution != "" {
		t.Errorf("answers=false still leaked a solution: %+v", out.Problems)
	}

	resp, _ = getURL(t, ts.URL+"/v1/homework?topic=no-such-topic")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown topic: status %d, want 400", resp.StatusCode)
	}

	// Malformed numeric query params are client errors, not silent defaults.
	resp, raw = getURL(t, fmt.Sprintf("%s/v1/homework?topic=%s&n=abc", ts.URL, topics[0]))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("n=abc: status %d, want 400 (%s)", resp.StatusCode, raw)
	}
	resp, _ = getURL(t, ts.URL+"/v1/survey/figure1?students=lots")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("students=lots: status %d, want 400", resp.StatusCode)
	}
}

func TestSurveyFigure1Endpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := getURL(t, ts.URL+"/v1/survey/figure1?students=80&seed=2022")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	out := decode[SurveyFigureResponse](t, raw)
	if len(out.Stats) == 0 {
		t.Fatal("no topic stats")
	}
	if !strings.Contains(out.Figure, "Figure 1") {
		t.Error("figure text missing header")
	}
	if len(out.ShapeProblems) != 0 {
		t.Errorf("default cohort violates the paper shape: %v", out.ShapeProblems)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 9})
	resp, raw := getURL(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[healthzBody](t, raw)
	if out.Status != "ok" || out.Workers != 3 || out.QueueCap != 9 {
		t.Errorf("healthz = %+v", out)
	}
}

func TestDebugVarsAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/cache/sim", CacheSimRequest{
			Trace: []TraceAccess{{Addr: 0x40}},
		})
	}
	getURL(t, ts.URL+"/v1/homework")

	resp, raw := getURL(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	vars := decode[map[string]json.RawMessage](t, raw)
	for _, key := range []string{"labd.scheduler", "labd.total_requests", "labd.endpoint.POST /v1/cache/sim",
		"labd.active_jobs", "labd.queue_hwm"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("debug vars missing %q in %s", key, raw)
		}
	}
	// The debug snapshot runs outside the worker pool, so nothing is active
	// while it renders; the gauge must read 0 between requests.
	var active int64
	if err := json.Unmarshal(vars["labd.active_jobs"], &active); err != nil {
		t.Fatalf("labd.active_jobs: %v", err)
	}
	if active != 0 {
		t.Errorf("active_jobs = %d between requests, want 0", active)
	}

	ep := decode[endpointVars](t, vars["labd.endpoint.POST /v1/cache/sim"])
	if ep.Requests != 3 {
		t.Errorf("cache/sim requests = %d, want 3", ep.Requests)
	}
	if got := ep.ByStatus["200"]; got != 3 {
		t.Errorf("cache/sim 200s = %d, want 3", got)
	}
}

func TestUnknownRouteIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := getURL(t, ts.URL+"/v1/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestShutdownRefusesNewWork(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/cache/sim", CacheSimRequest{
		Trace: []TraceAccess{{Addr: 0}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, raw)
	}
}

func TestRequestTimeoutMapsTo504(t *testing.T) {
	// A step cap far beyond what 50ms can execute, so the context deadline,
	// not the step budget, ends the unbounded spin below.
	_, ts := newTestServer(t, Config{DefaultTimeout: 50 * time.Millisecond, MaxSteps: 9_000_000_000})
	resp, raw := postJSON(t, ts.URL+"/v1/asm/run", AsmRunRequest{
		Source:   "main:\nloop:\n    jmp loop\n",
		MaxSteps: 9_000_000_000,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, raw)
	}
}
