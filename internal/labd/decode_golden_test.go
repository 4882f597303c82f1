package labd

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeGoldenCases are POST bodies at the edge of what a JSON request
// decoder must agree on: keys encoding/json matches loosely or decodes
// twice, nulls, numbers outside an integer field, malformed strings, and
// bodies around the 1 MiB cap. FuzzDecodeRequest seeds from them too.
var decodeGoldenCases = []struct {
	name, path, body string
	status           int
	want             string
}{
	{
		name: "unknown-field", path: "/v1/life/run",
		body:   `{"rows":8,"cols":8,"iters":2,"bogus":1}`,
		status: 400,
		want: `{
  "error": "decode request: json: unknown field \"bogus\""
}
`,
	},
	{
		name: "unknown-key-in-trace-element", path: "/v1/cache/sim",
		body:   `{"trace":[{"addr":0},{"addr":64,"wrte":true}]}`,
		status: 400,
		want: `{
  "error": "decode request: json: unknown field \"wrte\""
}
`,
	},
	{
		name: "case-folded-key", path: "/v1/life/run",
		body:   `{"Rows":8,"cols":8,"iters":2}`,
		status: 200,
		want: `{
  "rows": 8,
  "cols": 8,
  "generations": 2,
  "population": 26
}
`,
	},
	{
		name: "repeated-scalar-key", path: "/v1/life/run",
		body:   `{"rows":8,"cols":8,"iters":2,"rows":16}`,
		status: 200,
		want: `{
  "rows": 16,
  "cols": 8,
  "generations": 2,
  "population": 46
}
`,
	},
	{
		// The second array decodes into the first one's elements, so
		// both accesses stay writes and the eviction writes back.
		name: "repeated-trace-key", path: "/v1/cache/sim",
		body:   `{"trace":[{"addr":0,"write":true},{"addr":4096,"write":true}],"trace":[{"addr":0},{"addr":4096}]}`,
		status: 200,
		want: `{
  "num_sets": 64,
  "tag_bits": 22,
  "index_bits": 6,
  "offset_bits": 4,
  "stats": {
    "Accesses": 2,
    "Hits": 0,
    "Misses": 2,
    "Evictions": 1,
    "WriteBacks": 1,
    "MemReads": 2,
    "MemWrites": 0
  },
  "hit_rate": 0
}
`,
	},
	{
		name: "null-scalar", path: "/v1/life/run",
		body:   `{"rows":null,"cols":8,"iters":2}`,
		status: 200,
		want: `{
  "rows": 32,
  "cols": 8,
  "generations": 2,
  "population": 59
}
`,
	},
	{
		name: "null-trace", path: "/v1/vm/sim",
		body:   `{"trace":null}`,
		status: 400,
		want: `{
  "error": "trace is required"
}
`,
	},
	{
		name: "trailing-bytes", path: "/v1/life/run",
		body:   `{"rows":8,"cols":8,"iters":2} {"rows":9}`,
		status: 200,
		want: `{
  "rows": 8,
  "cols": 8,
  "generations": 2,
  "population": 26
}
`,
	},
	{
		name: "over-cap-value-ends-early", path: "/v1/life/run",
		body:   `{"rows":8,"cols":8,"iters":2}` + strings.Repeat(" ", 1<<20),
		status: 200,
		want: `{
  "rows": 8,
  "cols": 8,
  "generations": 2,
  "population": 26
}
`,
	},
	{
		name: "over-cap-value-unterminated", path: "/v1/asm/run",
		body:   `{"source":"` + strings.Repeat("a", 1<<20) + `"}`,
		status: 413,
		want: `{
  "error": "decode request: http: request body too large"
}
`,
	},
	{
		name: "empty-body", path: "/v1/minic/compile",
		body:   ``,
		status: 400,
		want: `{
  "error": "decode request: EOF"
}
`,
	},
	{
		name: "fraction-into-int", path: "/v1/life/run",
		body:   `{"rows":1.0}`,
		status: 400,
		want: `{
  "error": "decode request: json: cannot unmarshal number 1.0 into Go struct field LifeRunRequest.rows of type int"
}
`,
	},
	{
		name: "2^63-into-int", path: "/v1/life/run",
		body:   `{"rows":9223372036854775808}`,
		status: 400,
		want: `{
  "error": "decode request: json: cannot unmarshal number 9223372036854775808 into Go struct field LifeRunRequest.rows of type int"
}
`,
	},
	{
		name: "negative-addr", path: "/v1/cache/sim",
		body:   `{"trace":[{"addr":-1}]}`,
		status: 400,
		want: `{
  "error": "decode request: json: cannot unmarshal number -1 into Go struct field TraceAccess.trace.addr of type uint64"
}
`,
	},
	{
		// encoding/json substitutes U+FFFD for the invalid byte, and the
		// assembler's error quotes it.
		name: "invalid-utf8-in-source", path: "/v1/asm/run",
		body:   "{\"source\":\"main:\\n    mov\xffl $3, %ebx\\n\"}",
		status: 400,
		want:   "{\n  \"error\": \"asm: line 2: unknown instruction \\\"mov\ufffdl\\\"\"\n}\n",
	},
	{
		name: "leading-bom", path: "/v1/life/run",
		body:   "\xef\xbb\xbf{\"rows\":8,\"cols\":8,\"iters\":2}",
		status: 400,
		want: `{
  "error": "decode request: invalid character 'ï' looking for beginning of value"
}
`,
	},
}

// TestDecodeResponsesGolden pins the status and body bytes labd answers
// each decodeGoldenCases body with, as recorded before the strict reader
// existed: a body it declines must still get encoding/json's value or
// error, byte for byte.
func TestDecodeResponsesGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range decodeGoldenCases {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.status || rec.Body.String() != tc.want {
			t.Errorf("%s: got %d %q\nwant %d %q", tc.name, rec.Code, rec.Body.String(), tc.status, tc.want)
		}
	}
}
