package labd

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenMaxSteps is the step cap of the server TestValidationErrorsGolden
// runs against, so the step-budget cases stop in microseconds.
const goldenMaxSteps = 1000

// validationCases are one invalid request per badReqf call site in
// handlers.go and server.go, a few wrapped simulator errors, the
// step-budget error at each budget a request can end up with, and
// requests with several faults, which pin the order the checks run in.
// Four size bounds (asm and mini-C source over maxSourceBytes, a cache
// or VM trace over maxTraceLen) need more than a 1 MiB body can hold;
// directValidationCases covers them by calling the endpoint's check.
// vmSim's AddProcess and Switch errors are not here: the handler only
// adds a pid it has not seen and only switches to one it has added, so
// no request reaches them.
var validationCases = []struct {
	name, method, path, body string
	status                   int
	want                     string
}{
	{
		name: "asm-source-required", method: "POST", path: "/v1/asm/run",
		body:   `{}`,
		status: 400,
		want: `{
  "error": "source is required"
}
`,
	},
	{
		name: "asm-source-exceeds-generated", method: "POST", path: "/v1/minic/compile",
		body:   `{"source":"int main() { return ` + strings.Repeat("1+", 30000) + `1; }","run":true}`,
		status: 400,
		want: `{
  "error": "source exceeds 1048576 bytes"
}
`,
	},
	{
		name: "asm-assemble-error", method: "POST", path: "/v1/asm/run",
		body:   `{"source":"main:\n    movq $1, %eax\n"}`,
		status: 400,
		want: `{
  "error": "asm: line 2: unknown instruction \"movq\""
}
`,
	},
	{
		name: "asm-step-budget-request", method: "POST", path: "/v1/asm/run",
		body:   `{"source":"main:\nloop:\n    jmp loop\n","max_steps":100}`,
		status: 400,
		want: `{
  "error": "exceeded step budget of 100"
}
`,
	},
	{
		name: "asm-step-budget-cap", method: "POST", path: "/v1/asm/run",
		body:   `{"source":"main:\nloop:\n    jmp loop\n"}`,
		status: 400,
		want: `{
  "error": "exceeded step budget of 1000"
}
`,
	},
	{
		name: "asm-step-budget-over-cap", method: "POST", path: "/v1/asm/run",
		body:   `{"source":"main:\nloop:\n    jmp loop\n","max_steps":5000}`,
		status: 400,
		want: `{
  "error": "exceeded step budget of 1000"
}
`,
	},
	{
		name: "asm-step-budget-negative", method: "POST", path: "/v1/asm/run",
		body:   `{"source":"main:\nloop:\n    jmp loop\n","max_steps":-7}`,
		status: 400,
		want: `{
  "error": "exceeded step budget of 1000"
}
`,
	},
	{
		name: "minic-source-required", method: "POST", path: "/v1/minic/compile",
		body:   `{"run":true,"stdin":"1","max_steps":5}`,
		status: 400,
		want: `{
  "error": "source is required"
}
`,
	},
	{
		name: "minic-compile-error", method: "POST", path: "/v1/minic/compile",
		body:   `{"source":"int main() { return x; }"}`,
		status: 400,
		want: `{
  "error": "minic: line 1: undefined variable \"x\""
}
`,
	},
	{
		name: "minic-step-budget-request", method: "POST", path: "/v1/minic/compile",
		body:   `{"source":"int main() { while (1) {} return 0; }","run":true,"max_steps":50}`,
		status: 400,
		want: `{
  "error": "exceeded step budget of 50"
}
`,
	},
	{
		name: "minic-step-budget-cap", method: "POST", path: "/v1/minic/compile",
		body:   `{"source":"int main() { while (1) {} return 0; }","run":true,"max_steps":5000}`,
		status: 400,
		want: `{
  "error": "exceeded step budget of 1000"
}
`,
	},
	{
		name: "cache-unknown-write", method: "POST", path: "/v1/cache/sim",
		body:   `{"write":"around","trace":[{"addr":0}]}`,
		status: 400,
		want: `{
  "error": "unknown write policy \"around\""
}
`,
	},
	{
		name: "cache-unknown-alloc", method: "POST", path: "/v1/cache/sim",
		body:   `{"alloc":"sometimes","trace":[{"addr":0}]}`,
		status: 400,
		want: `{
  "error": "unknown alloc policy \"sometimes\""
}
`,
	},
	{
		name: "cache-unknown-repl", method: "POST", path: "/v1/cache/sim",
		body:   `{"repl":"random","trace":[{"addr":0}]}`,
		status: 400,
		want: `{
  "error": "unknown replacement policy \"random\""
}
`,
	},
	{
		name: "cache-lines-exceed", method: "POST", path: "/v1/cache/sim",
		body:   `{"size_bytes":2097152,"trace":[{"addr":0}]}`,
		status: 400,
		want: `{
  "error": "cache of 131072 lines exceeds 65536 (size_bytes/block_size)"
}
`,
	},
	{
		name: "cache-block-assoc-overflow", method: "POST", path: "/v1/cache/sim",
		body:   `{"size_bytes":64,"block_size":4611686018427387904,"assoc":4,"trace":[{"addr":0}]}`,
		status: 400,
		want: `{
  "error": "block_size 4611686018427387904 times assoc 4 overflows"
}
`,
	},
	{
		name: "cache-table-rows-exceed", method: "POST", path: "/v1/cache/sim",
		body:   `{"workload":"rowmajor","rows":1024,"cols":1024,"table_n":1048576}`,
		status: 400,
		want: `{
  "error": "table_n 1048576 exceeds 4096"
}
`,
	},
	{
		name: "cache-no-trace-or-workload", method: "POST", path: "/v1/cache/sim",
		body:   `{"rows":8,"cols":8}`,
		status: 400,
		want: `{
  "error": "provide a trace or a workload"
}
`,
	},
	{
		name: "cache-matrix-out-of-range", method: "POST", path: "/v1/cache/sim",
		body:   `{"workload":"rowmajor","rows":-1,"trace":[{"addr":0}]}`,
		status: 400,
		want: `{
  "error": "matrix -1x64 out of range"
}
`,
	},
	{
		name: "cache-matrix-too-big", method: "POST", path: "/v1/cache/sim",
		body:   `{"workload":"colmajor","rows":2048,"cols":1024}`,
		status: 400,
		want: `{
  "error": "matrix 2048x1024 out of range"
}
`,
	},
	{
		name: "cache-unknown-workload", method: "POST", path: "/v1/cache/sim",
		body:   `{"workload":"diagonal","trace":[{"addr":0}]}`,
		status: 400,
		want: `{
  "error": "unknown workload \"diagonal\""
}
`,
	},
	{
		name: "cache-config-invalid", method: "POST", path: "/v1/cache/sim",
		body:   `{"size_bytes":1000,"trace":[{"addr":0}]}`,
		status: 400,
		want: `{
  "error": "cache: size 1000 not divisible by block*assoc 16"
}
`,
	},
	{
		name: "cache-negative-size", method: "POST", path: "/v1/cache/sim",
		body:   `{"size_bytes":-1024,"workload":"rowmajor"}`,
		status: 400,
		want: `{
  "error": "cache: size, block size, and associativity must be positive"
}
`,
	},
	{
		name: "cache-every-field-bad", method: "POST", path: "/v1/cache/sim",
		body:   `{"size_bytes":-1,"write":"x","alloc":"y","repl":"z","workload":"w","rows":-1}`,
		status: 400,
		want: `{
  "error": "unknown write policy \"x\""
}
`,
	},
	{
		name: "cache-policies-before-sizes", method: "POST", path: "/v1/cache/sim",
		body:   `{"size_bytes":2097152,"repl":"z"}`,
		status: 400,
		want: `{
  "error": "unknown replacement policy \"z\""
}
`,
	},
	{
		name: "vm-trace-required", method: "POST", path: "/v1/vm/sim",
		body:   `{"num_frames":4097,"tlb_size":1025}`,
		status: 400,
		want: `{
  "error": "trace is required"
}
`,
	},
	{
		name: "vm-frames-exceed", method: "POST", path: "/v1/vm/sim",
		body:   `{"num_frames":4097,"tlb_size":1025,"trace":[{"pid":1,"addr":0}]}`,
		status: 400,
		want: `{
  "error": "num_frames 4097 exceeds 4096"
}
`,
	},
	{
		name: "vm-tlb-exceeds", method: "POST", path: "/v1/vm/sim",
		body:   `{"tlb_size":1025,"trace":[{"pid":1,"addr":0}]}`,
		status: 400,
		want: `{
  "error": "tlb_size 1025 exceeds 1024"
}
`,
	},
	{
		name: "vm-page-entries-exceed", method: "POST", path: "/v1/vm/sim",
		body:   `{"num_pages":524288,"trace":[{"pid":1,"addr":0},{"pid":2,"addr":0},{"pid":3,"addr":0}]}`,
		status: 400,
		want: `{
  "error": "access 2: 3 processes of 524288 pages exceed 1048576 page-table entries"
}
`,
	},
	{
		name: "vm-segfault", method: "POST", path: "/v1/vm/sim",
		body:   `{"trace":[{"pid":1,"addr":0},{"pid":1,"addr":16384}]}`,
		status: 400,
		want: `{
  "error": "access 1: vm: virtual page 64 out of range (segfault)"
}
`,
	},
	{
		name: "vm-config-invalid", method: "POST", path: "/v1/vm/sim",
		body:   `{"page_size":100,"trace":[{"pid":1,"addr":0}]}`,
		status: 400,
		want: `{
  "error": "vm: page size 100 is not a power of two"
}
`,
	},
	{
		name: "life-grid-out-of-range", method: "POST", path: "/v1/life/run",
		body:   `{"rows":-1}`,
		status: 400,
		want: `{
  "error": "grid -1x32 out of range (max 1048576 cells)"
}
`,
	},
	{
		name: "life-grid-too-big", method: "POST", path: "/v1/life/run",
		body:   `{"rows":2048,"cols":1024}`,
		status: 400,
		want: `{
  "error": "grid 2048x1024 out of range (max 1048576 cells)"
}
`,
	},
	{
		name: "life-iters-negative", method: "POST", path: "/v1/life/run",
		body:   `{"iters":-1}`,
		status: 400,
		want: `{
  "error": "iters -1 out of range [1,10000]"
}
`,
	},
	{
		name: "life-iters-over", method: "POST", path: "/v1/life/run",
		body:   `{"iters":10001}`,
		status: 400,
		want: `{
  "error": "iters 10001 out of range [1,10000]"
}
`,
	},
	{
		name: "life-threads-exceed", method: "POST", path: "/v1/life/run",
		body:   `{"threads":65}`,
		status: 400,
		want: `{
  "error": "threads 65 exceeds max 64"
}
`,
	},
	{
		name: "life-threads-exceed-speedup", method: "POST", path: "/v1/life/run",
		body:   `{"threads":65,"speedup":true}`,
		status: 400,
		want: `{
  "error": "threads 65 exceeds max 64"
}
`,
	},
	{
		name: "life-density-over", method: "POST", path: "/v1/life/run",
		body:   `{"density":1.5}`,
		status: 400,
		want: `{
  "error": "density 1.5 outside [0,1]"
}
`,
	},
	{
		name: "life-density-negative", method: "POST", path: "/v1/life/run",
		body:   `{"density":-0.25}`,
		status: 400,
		want: `{
  "error": "density -0.25 outside [0,1]"
}
`,
	},
	{
		name: "life-unknown-partition", method: "POST", path: "/v1/life/run",
		body:   `{"partition":"diagonal"}`,
		status: 400,
		want: `{
  "error": "unknown partition \"diagonal\""
}
`,
	},
	{
		name: "life-dist-rows-only", method: "POST", path: "/v1/life/run",
		body:   `{"engine":"dist","partition":"cols"}`,
		status: 400,
		want: `{
  "error": "dist engine shards by rows only"
}
`,
	},
	{
		name: "life-dist-rows-only-serial", method: "POST", path: "/v1/life/run",
		body:   `{"threads":1,"engine":"dist","partition":"cols","packed":true}`,
		status: 400,
		want: `{
  "error": "dist engine shards by rows only"
}
`,
	},
	{
		name: "life-unknown-engine", method: "POST", path: "/v1/life/run",
		body:   `{"engine":"gpu","threads":0}`,
		status: 400,
		want: `{
  "error": "unknown engine \"gpu\""
}
`,
	},
	{
		name: "life-every-field-bad", method: "POST", path: "/v1/life/run",
		body:   `{"rows":-1,"iters":-1,"threads":65,"density":2,"partition":"x","engine":"y","speedup":true}`,
		status: 400,
		want: `{
  "error": "grid -1x32 out of range (max 1048576 cells)"
}
`,
	},
	{
		name: "life-threads-before-density", method: "POST", path: "/v1/life/run",
		body:   `{"iters":0,"threads":65,"density":2}`,
		status: 400,
		want: `{
  "error": "threads 65 exceeds max 64"
}
`,
	},
	{
		name: "life-partition-before-engine", method: "POST", path: "/v1/life/run",
		body:   `{"partition":"x","engine":"y"}`,
		status: 400,
		want: `{
  "error": "unknown partition \"x\""
}
`,
	},
	{
		name: "homework-n-zero", method: "GET", path: "/v1/homework?topic=binary-conversion&n=0",
		status: 400,
		want: `{
  "error": "n 0 out of range [1,100]"
}
`,
	},
	{
		name: "homework-n-over", method: "GET", path: "/v1/homework?topic=binary-conversion&n=101&answers=false",
		status: 400,
		want: `{
  "error": "n 101 out of range [1,100]"
}
`,
	},
	{
		name: "homework-unknown-topic", method: "GET", path: "/v1/homework?topic=no-such-topic&n=3",
		status: 400,
		want: `{
  "error": "homework: unknown topic \"no-such-topic\" (have [binary-conversion binary-arithmetic circuits assembly-trace cache-division cache-trace processes virtual-memory])"
}
`,
	},
	{
		name: "homework-malformed-seed", method: "GET", path: "/v1/homework?seed=x",
		status: 400,
		want: `{
  "error": "query parameter \"seed\": \"x\" is not an integer"
}
`,
	},
	{
		name: "homework-malformed-n", method: "GET", path: "/v1/homework?topic=binary-conversion&n=abc",
		status: 400,
		want: `{
  "error": "query parameter \"n\": \"abc\" is not an integer"
}
`,
	},
	{
		name: "survey-students-zero", method: "GET", path: "/v1/survey/figure1?students=0",
		status: 400,
		want: `{
  "error": "students 0 out of range [1,10000]"
}
`,
	},
	{
		name: "survey-students-over", method: "GET", path: "/v1/survey/figure1?students=10001&seed=3",
		status: 400,
		want: `{
  "error": "students 10001 out of range [1,10000]"
}
`,
	},
	{
		name: "survey-malformed-students", method: "GET", path: "/v1/survey/figure1?students=lots",
		status: 400,
		want: `{
  "error": "query parameter \"students\": \"lots\" is not an integer"
}
`,
	},
	{
		name: "survey-malformed-seed", method: "GET", path: "/v1/survey/figure1?seed=1.5&students=lots",
		status: 400,
		want: `{
  "error": "query parameter \"seed\": \"1.5\" is not an integer"
}
`,
	},
}

// directValidationCases run an endpoint's check on a request no HTTP
// body can carry.
var directValidationCases = []struct {
	name   string
	run    func(s *Server) error
	status int
	want   string
}{
	{name: "asm-source-exceeds", run: func(s *Server) error {
		_, err := s.checkAsm(AsmRunRequest{Source: strings.Repeat("a", maxSourceBytes+1)})
		return err
	}, status: 400, want: `{
  "error": "source exceeds 1048576 bytes"
}
`},
	{name: "minic-source-exceeds", run: func(s *Server) error {
		_, err := s.checkMinic(MinicCompileRequest{Source: strings.Repeat("a", maxSourceBytes+1)})
		return err
	}, status: 400, want: `{
  "error": "source exceeds 1048576 bytes"
}
`},
	{name: "cache-trace-exceeds", run: func(s *Server) error {
		_, err := s.checkCache(CacheSimRequest{Trace: make([]TraceAccess, maxTraceLen+1)})
		return err
	}, status: 400, want: `{
  "error": "trace exceeds 1048576 accesses"
}
`},
	{name: "vm-trace-exceeds", run: func(s *Server) error {
		_, err := s.checkVM(VMSimRequest{Trace: make([]VMAccess, maxTraceLen+1)})
		return err
	}, status: 400, want: `{
  "error": "trace exceeds 1048576 accesses"
}
`},
}

// serveValidationCase sends one validationCases request to h.
func serveValidationCase(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var req *http.Request
	if method == http.MethodGet {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestValidationErrorsGolden pins the status and body labd answers each
// invalid request with, as recorded while every handler still filled in
// and checked its own fields: checking a request before the memo and the
// queue must leave an invalid one its error and the order its faults are
// reported in.
func TestValidationErrorsGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxSteps: goldenMaxSteps})
	h := s.Handler()
	for _, tc := range validationCases {
		rec := serveValidationCase(h, tc.method, tc.path, tc.body)
		if rec.Code != tc.status || rec.Body.String() != tc.want {
			t.Errorf("%s: got %d %q\nwant %d %q", tc.name, rec.Code, rec.Body.String(), tc.status, tc.want)
		}
	}
	for _, tc := range directValidationCases {
		rec := httptest.NewRecorder()
		s.writeError(rec, tc.run(s))
		if rec.Code != tc.status || rec.Body.String() != tc.want {
			t.Errorf("%s: got %d %q\nwant %d %q", tc.name, rec.Code, rec.Body.String(), tc.status, tc.want)
		}
	}
}
