package labd

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fuzzRoutes are the seven cached endpoints FuzzLabdEndpoints drives,
// picked by the fuzzer's route byte. checked parses a request as register
// does, fails t unless the route's check is idempotent on every request
// it accepts, and reports whether the checked request measures timings,
// whose bytes no second server can repeat.
var fuzzRoutes = []struct {
	method, path string
	checked      func(t *testing.T, s *Server, r *http.Request) (timed bool)
}{
	{"POST", "/v1/asm/run", func(t *testing.T, s *Server, r *http.Request) bool {
		checkIdempotent(t, r, parseJSON, s.checkAsm)
		return false
	}},
	{"POST", "/v1/minic/compile", func(t *testing.T, s *Server, r *http.Request) bool {
		checkIdempotent(t, r, parseJSON, s.checkMinic)
		return false
	}},
	{"POST", "/v1/cache/sim", func(t *testing.T, s *Server, r *http.Request) bool {
		checkIdempotent(t, r, parseJSON, s.checkCache)
		return false
	}},
	{"POST", "/v1/vm/sim", func(t *testing.T, s *Server, r *http.Request) bool {
		checkIdempotent(t, r, parseJSON, s.checkVM)
		return false
	}},
	{"POST", "/v1/life/run", func(t *testing.T, s *Server, r *http.Request) bool {
		return checkIdempotent(t, r, parseJSON, s.checkLife).Speedup
	}},
	{"GET", "/v1/homework", func(t *testing.T, s *Server, r *http.Request) bool {
		checkIdempotent(t, r, parseHomework, s.checkHomework)
		return false
	}},
	{"GET", "/v1/survey/figure1", func(t *testing.T, s *Server, r *http.Request) bool {
		checkIdempotent(t, r, parseSurvey, s.checkSurvey)
		return false
	}},
}

// checkIdempotent parses r as register does and, when check accepts the
// request, fails t unless check accepts its own result unchanged. It
// returns the checked request, or the zero request when parse or check
// refuses it.
func checkIdempotent[Req any](t *testing.T, r *http.Request, parse func(*http.Request, *Req) error, check func(Req) (Req, error)) Req {
	t.Helper()
	var req, zero Req
	if parse(r, &req) != nil {
		return zero
	}
	once, err := check(req)
	if err != nil {
		return zero
	}
	if twice, err := check(once); err != nil || !reflect.DeepEqual(once, twice) {
		t.Fatalf("check is not idempotent on %+v:\n once: %+v\ntwice: %+v (%v)", req, once, twice, err)
	}
	return once
}

// The fuzz servers are small: a short deadline and step cap keep one
// exec in the milliseconds, and a fuzzed request slower than that ends
// as a 504 on both servers.
func newFuzzServer(t *testing.T, cc CacheConfig) *Server {
	s := New(Config{Workers: 2, QueueDepth: 8, DefaultTimeout: 250 * time.Millisecond, MaxSteps: 100_000, Cache: cc})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// fuzzRequest carries in as a POST body or as a GET query string.
func fuzzRequest(method, path, in string) *http.Request {
	if method == http.MethodGet {
		req := httptest.NewRequest(method, path, nil)
		req.URL.RawQuery = in
		return req
	}
	return httptest.NewRequest(method, path, strings.NewReader(in))
}

// serveFuzz sends in to s.
func serveFuzz(s *Server, method, path, in string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, fuzzRequest(method, path, in))
	return rec
}

// fuzzPairs seed FuzzLabdEndpoints. Within each pair the two requests
// differ in exactly one key field (or, where noted, only in spelling),
// and every key field of every endpoint has a pair whose responses
// differ. So the seed corpus alone fails when a key drops a field: the
// first request populates the cache and the second, under a key that no
// longer tells them apart, hits the first one's bytes.
var fuzzPairs = []struct{ path, a, b string }{
	// asm: source, stdin, max_steps.
	{"/v1/asm/run",
		`{"source":"main:\n    movl $7, %ebx\n    movl $1, %eax\n    int $0x80\n"}`,
		`{"source":"main:\n    movl $8, %ebx\n    movl $1, %eax\n    int $0x80\n"}`},
	{"/v1/asm/run",
		`{"source":".data\nbuf: .long 0\n.text\nmain:\n    movl $3, %eax\n    movl $0, %ebx\n    movl $buf, %ecx\n    movl $1, %edx\n    int $0x80\n    movzbl buf, %ebx\n    movl $1, %eax\n    int $0x80\n","stdin":"A"}`,
		`{"source":".data\nbuf: .long 0\n.text\nmain:\n    movl $3, %eax\n    movl $0, %ebx\n    movl $buf, %ecx\n    movl $1, %edx\n    int $0x80\n    movzbl buf, %ebx\n    movl $1, %eax\n    int $0x80\n","stdin":"B"}`},
	{"/v1/asm/run",
		`{"source":"main:\n    movl $40, %ecx\nloop:\n    decl %ecx\n    cmpl $0, %ecx\n    jne loop\n    movl $1, %eax\n    int $0x80\n","max_steps":100}`,
		`{"source":"main:\n    movl $40, %ecx\nloop:\n    decl %ecx\n    cmpl $0, %ecx\n    jne loop\n    movl $1, %eax\n    int $0x80\n","max_steps":1000}`},
	// mini-C: source, run, stdin, max_steps, and the lexer's non-ASCII case.
	{"/v1/minic/compile",
		`{"source":"int main() { return 3; }","run":true}`,
		`{"source":"int main() { return 4; }","run":true}`},
	{"/v1/minic/compile",
		`{"source":"int main() { return 3; }"}`,
		`{"source":"int main() { return 3; }","run":true}`},
	{"/v1/minic/compile",
		`{"source":"int main() { return read_int(); }","run":true,"stdin":"5"}`,
		`{"source":"int main() { return read_int(); }","run":true,"stdin":"6"}`},
	{"/v1/minic/compile",
		`{"source":"int main() { int s = 0; for (int i = 0; i < 20; i++) { s += i; } return s; }","run":true,"max_steps":50}`,
		`{"source":"int main() { int s = 0; for (int i = 0; i < 20; i++) { s += i; } return s; }","run":true,"max_steps":5000}`},
	{"/v1/minic/compile",
		`{"source":"int café = 1;"}`,
		`{"source":"int cafe = 1; int main() { return cafe; }","run":true}`},
	// cache: every configuration field, the trace's length and each
	// element field, the workload, its shape, and table_n.
	{"/v1/cache/sim",
		`{"size_bytes":1024,"assoc":2,"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`,
		`{"size_bytes":2048,"assoc":2,"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`},
	{"/v1/cache/sim",
		`{"block_size":16,"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`,
		`{"block_size":32,"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`},
	{"/v1/cache/sim",
		`{"assoc":1,"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`,
		`{"assoc":2,"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`},
	{"/v1/cache/sim",
		`{"assoc":2,"write":"back","trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`,
		`{"assoc":2,"write":"through","trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`},
	{"/v1/cache/sim",
		`{"assoc":2,"alloc":"allocate","trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`,
		`{"assoc":2,"alloc":"noallocate","trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`},
	{"/v1/cache/sim",
		`{"assoc":2,"repl":"lru","trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`,
		`{"assoc":2,"repl":"fifo","trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`},
	{"/v1/cache/sim",
		`{"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`,
		`{"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true}]}`},
	{"/v1/cache/sim",
		`{"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`,
		`{"trace":[{"addr":0,"write":true},{"addr":16},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`},
	{"/v1/cache/sim",
		`{"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`,
		`{"trace":[{"addr":0},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`},
	{"/v1/cache/sim", `{"workload":"rowmajor"}`, `{"workload":"colmajor"}`},
	{"/v1/cache/sim", `{"workload":"rowmajor","rows":8,"cols":8}`, `{"workload":"rowmajor","rows":9,"cols":8}`},
	{"/v1/cache/sim", `{"workload":"rowmajor","rows":8,"cols":8}`, `{"workload":"rowmajor","rows":8,"cols":9}`},
	{"/v1/cache/sim",
		`{"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`,
		`{"table_n":2,"trace":[{"addr":0,"write":true},{"addr":4096},{"addr":0},{"addr":8192,"write":true},{"addr":0}]}`},
	// Spelling only: a built-in workload ignores the trace.
	{"/v1/cache/sim", `{"workload":"colmajor","rows":8,"trace":[{"addr":0}]}`, `{"workload":"colmajor","rows":8}`},
	// vm: every configuration field, the trace's length and each element
	// field.
	{"/v1/vm/sim",
		`{"page_size":256,"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`,
		`{"page_size":512,"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`},
	{"/v1/vm/sim",
		`{"num_frames":8,"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`,
		`{"num_frames":1,"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`},
	{"/v1/vm/sim",
		`{"tlb_size":4,"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300},{"pid":1,"addr":0}]}`,
		`{"tlb_size":1,"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300},{"pid":1,"addr":0}]}`},
	{"/v1/vm/sim",
		`{"num_pages":64,"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`,
		`{"num_pages":2,"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`},
	{"/v1/vm/sim",
		`{"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`,
		`{"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600}]}`},
	{"/v1/vm/sim",
		`{"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`,
		`{"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":1,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`},
	{"/v1/vm/sim",
		`{"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`,
		`{"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":0},{"pid":1,"addr":0}]}`},
	{"/v1/vm/sim",
		`{"num_frames":1,"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300,"write":true},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`,
		`{"num_frames":1,"trace":[{"pid":1,"addr":0},{"pid":1,"addr":300},{"pid":2,"addr":0},{"pid":1,"addr":600},{"pid":1,"addr":0}]}`},
	// life: every field; packed is spelling only, and a speedup
	// request is timed, so it is never compared.
	{"/v1/life/run", `{"rows":16,"cols":16,"iters":4,"seed":5}`, `{"rows":17,"cols":16,"iters":4,"seed":5}`},
	{"/v1/life/run", `{"rows":16,"cols":16,"iters":4,"seed":5}`, `{"rows":16,"cols":17,"iters":4,"seed":5}`},
	{"/v1/life/run", `{"rows":16,"cols":16,"iters":4,"seed":5}`, `{"rows":16,"cols":16,"iters":5,"seed":5}`},
	{"/v1/life/run", `{"rows":16,"cols":16,"iters":4,"seed":5}`, `{"rows":16,"cols":16,"iters":4,"seed":6}`},
	{"/v1/life/run", `{"rows":16,"cols":16,"iters":4,"density":0.5}`, `{"rows":16,"cols":16,"iters":4,"density":0.25}`},
	{"/v1/life/run", `{"rows":16,"cols":16,"iters":4,"threads":1}`, `{"rows":16,"cols":16,"iters":4,"threads":2}`},
	{"/v1/life/run", `{"iters":4,"threads":2,"engine":"dist","partition":"rows"}`, `{"iters":4,"threads":2,"engine":"dist","partition":"cols"}`},
	{"/v1/life/run", `{"iters":4,"threads":2,"partition":"cols","engine":"parallel"}`, `{"iters":4,"threads":2,"partition":"cols","engine":"dist"}`},
	{"/v1/life/run", `{"iters":4,"packed":true}`, `{"iters":4,"packed":false}`},
	{"/v1/life/run", `{"iters":4,"threads":2,"speedup":true}`, `{"iters":4,"threads":2}`},
	// homework: every query parameter; the topic listing ignores the rest.
	{"/v1/homework", "topic=binary-conversion&n=2&seed=5", "topic=binary-arithmetic&n=2&seed=5"},
	{"/v1/homework", "topic=binary-conversion&n=2&seed=5", "topic=binary-conversion&n=2&seed=6"},
	{"/v1/homework", "topic=binary-conversion&n=2&seed=5", "topic=binary-conversion&n=3&seed=5"},
	{"/v1/homework", "topic=binary-conversion&n=2&seed=5", "topic=binary-conversion&n=2&seed=5&answers=false"},
	{"/v1/homework", "", "seed=5&n=3&answers=false"},
	// survey: both query parameters.
	{"/v1/survey/figure1", "students=25&seed=7", "students=26&seed=7"},
	{"/v1/survey/figure1", "students=25&seed=7", "students=25&seed=8"},
}

// FuzzLabdEndpoints sends a fuzzed request A, then B, then A again to one
// of the seven cached endpoints through Server.Handler, once to a cached
// server and once to a cache-disabled twin, each new for the exec. No
// response is a 5xx other than a 504, check is idempotent on every
// request it accepts, and each response's status and body are the
// twin's byte for byte: a key that lets A and B share an entry serves
// one request's answer to the other. Pairs where either server timed out
// or the request measures timings are not compared.
func FuzzLabdEndpoints(f *testing.F) {
	for _, p := range fuzzPairs {
		route := -1
		for i, r := range fuzzRoutes {
			if r.path == p.path {
				route = i
			}
		}
		if route < 0 {
			f.Fatalf("no fuzz route for %s", p.path)
		}
		f.Add(uint8(route), p.a, p.b)
	}
	f.Fuzz(func(t *testing.T, route uint8, a, b string) {
		r := fuzzRoutes[int(route)%len(fuzzRoutes)]
		cached := newFuzzServer(t, CacheConfig{})
		twin := newFuzzServer(t, CacheConfig{MaxBytes: -1})
		for _, in := range []string{a, b, a} {
			timed := r.checked(t, cached, fuzzRequest(r.method, r.path, in))
			got := serveFuzz(cached, r.method, r.path, in)
			want := serveFuzz(twin, r.method, r.path, in)
			for _, rec := range []*httptest.ResponseRecorder{got, want} {
				if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
					t.Fatalf("%s %s %q: status %d: %s", r.method, r.path, in, rec.Code, rec.Body)
				}
			}
			if timed || got.Code == http.StatusGatewayTimeout || want.Code == http.StatusGatewayTimeout {
				continue
			}
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s %s %q (sequence %q, %q, %q):\ncached server (%s): %d %s\ncache-disabled twin: %d %s",
					r.method, r.path, in, a, b, a, got.Header().Get(cacheHeader), got.Code, got.Body, want.Code, want.Body)
			}
		}
	})
}
