package labd

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSizeGuardsReject400: every request-controlled size is bounded before
// anything is allocated for it, and a product of two sizes is checked
// without overflowing. Each of these requests once panicked a worker
// (makeslice: len out of range, or a divide by zero), died of a fatal
// out-of-memory, wrapped past its bound and allocated until the process
// died, or (table_n) held a worker for seconds rendering a million-row
// table; each must now be a 400.
func TestSizeGuardsReject400(t *testing.T) {
	cases := []struct{ name, path, body string }{
		{"life-rows-cols-wrap", "/v1/life/run", `{"rows":4294967296,"cols":4294967296}`},
		{"life-cols-wrap", "/v1/life/run", `{"rows":2,"cols":4611686018427387904}`},
		{"cache-size-makeslice", "/v1/cache/sim", `{"size_bytes":4611686018427387904,"trace":[{"addr":0}]}`},
		{"cache-size-oom", "/v1/cache/sim", `{"size_bytes":68719476736,"trace":[{"addr":0}]}`},
		{"cache-block-assoc-wrap", "/v1/cache/sim", `{"size_bytes":4611686018427387904,"block_size":4611686018427387904,"assoc":4,"trace":[{"addr":0}]}`},
		{"cache-matrix-wrap", "/v1/cache/sim", `{"workload":"rowmajor","rows":4294967296,"cols":4294967296}`},
		{"cache-table-rows", "/v1/cache/sim", `{"workload":"rowmajor","rows":1024,"cols":1024,"table_n":1048576}`},
		{"vm-frames-makeslice", "/v1/vm/sim", `{"num_frames":4611686018427387904,"trace":[{"pid":1,"addr":0}]}`},
		{"vm-tlb-oom", "/v1/vm/sim", `{"tlb_size":68719476736,"trace":[{"pid":1,"addr":0}]}`},
		{"vm-pages-oom", "/v1/vm/sim", `{"num_pages":68719476736,"trace":[{"pid":1,"addr":0}]}`},
		{"vm-pages-times-pids", "/v1/vm/sim", `{"num_pages":524288,"trace":[{"pid":1,"addr":0},{"pid":2,"addr":0},{"pid":3,"addr":0}]}`},
	}
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s: got %d %s, want a 400 error", tc.name, rec.Code, rec.Body)
		}
	}
}

// TestSizeGuardsAcceptBounds: requests at each bound still run.
func TestSizeGuardsAcceptBounds(t *testing.T) {
	cases := []struct{ name, path, body string }{
		{"life-max-cells", "/v1/life/run", `{"rows":1,"cols":1048576,"iters":1}`},
		{"cache-max-lines", "/v1/cache/sim", `{"size_bytes":1048576,"block_size":16,"trace":[{"addr":0}]}`},
		{"cache-max-matrix", "/v1/cache/sim", `{"workload":"colmajor","rows":1024,"cols":1024}`},
		{"cache-max-table", "/v1/cache/sim", `{"workload":"rowmajor","table_n":4096}`},
		{"vm-max-frames-tlb", "/v1/vm/sim", `{"num_frames":4096,"tlb_size":1024,"trace":[{"pid":1,"addr":0}]}`},
		{"vm-max-page-entries", "/v1/vm/sim", `{"num_pages":524288,"trace":[{"pid":1,"addr":0},{"pid":2,"addr":0}]}`},
	}
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: got %d %s, want 200", tc.name, rec.Code, rec.Body)
		}
	}
}
