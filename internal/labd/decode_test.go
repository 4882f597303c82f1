package labd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// requestTypes lists a zero value of every POST request type the strict
// reader fills.
var requestTypes = []any{
	AsmRunRequest{}, MinicCompileRequest{}, CacheSimRequest{}, VMSimRequest{}, LifeRunRequest{},
}

// oracleDecode decodes body into a fresh value of req's type the way
// labd always has: encoding/json's Decoder, unknown fields disallowed.
func oracleDecode(body []byte, req any) (any, error) {
	v := reflect.New(reflect.TypeOf(req))
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v.Interface())
	return v.Elem().Interface(), err
}

// strictDecode runs the strict reader over a private copy of body and
// then scribbles over the copy, so a decoded string that aliased the
// read buffer shows up as a mismatch.
func strictDecode(body []byte, req any) (any, bool) {
	buf := append([]byte(nil), body...)
	v := reflect.New(reflect.TypeOf(req))
	ok := decodeRequest(buf, v.Interface())
	for i := range buf {
		buf[i] = 0xff
	}
	return v.Elem().Interface(), ok
}

// checkAgrees fails t if the strict reader accepts body as req's type
// but encoding/json rejects it or decodes a different value.
func checkAgrees(t *testing.T, body []byte, req any) (accepted bool) {
	t.Helper()
	got, ok := strictDecode(body, req)
	if !ok {
		return false
	}
	want, err := oracleDecode(body, req)
	if err != nil {
		t.Fatalf("%T: strict reader accepted %q; encoding/json rejects it: %v", req, body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: strict reader decoded %q as\n%#v\nencoding/json as\n%#v", req, body, got, want)
	}
	return true
}

// Classroom request bodies, built the way the cs31bench classroom mix
// builds its POST templates: asm and mini-C sources through json.Marshal
// (so "\n" and "<" escapes), traces by hand in traceJSON's style,
// and life bodies through json.Marshal of the mix's request shape.

func benchAsmLoop(exit int64) string {
	return fmt.Sprintf("main:\n    movl $%d, %%ecx\nloop:\n    decl %%ecx\n    cmpl $0, %%ecx\n    jne loop\n"+
		"    movl $%d, %%ebx\n    movl $1, %%eax\n    int $0x80\n", 2000, exit)
}

func benchAsmExit(exit int64) string {
	return fmt.Sprintf("main:\n    movl $%d, %%ebx\n    movl $1, %%eax\n    int $0x80\n", exit)
}

func benchMinic(exit int64) string {
	return fmt.Sprintf("int main() {\n    int s = 0;\n    for (int i = 0; i < %d; i++) { s += i; }\n    return s - %d + %d;\n}\n",
		200, 200*199/2, exit)
}

type benchSourceBody struct {
	Source   string `json:"source"`
	Run      bool   `json:"run,omitempty"`
	MaxSteps int64  `json:"max_steps,omitempty"`
}

type benchLifeBody struct {
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	Iters   int    `json:"iters"`
	Seed    int64  `json:"seed"`
	Threads int    `json:"threads,omitempty"`
	Engine  string `json:"engine,omitempty"`
	Packed  bool   `json:"packed,omitempty"`
	Speedup bool   `json:"speedup,omitempty"`
}

// benchTrace writes n accesses as {"pid":P,"addr":A,"write":true}, with
// pids cycling over procs (none when procs is 0) and every fourth access
// a write, from a fixed xorshift stream.
func benchTrace(n, procs int, addrSpan uint64) []byte {
	b := []byte(`{"trace":[`)
	x := uint64(0x9e3779b97f4a7c15)
	for j := 0; j < n; j++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if procs > 0 {
			b = append(b, `"pid":`...)
			b = strconv.AppendInt(b, int64(1+int(x>>40)%procs), 10)
			b = append(b, ',')
		}
		b = append(b, `"addr":`...)
		b = strconv.AppendUint(b, x%addrSpan&^3, 10)
		if x%4 == 0 {
			b = append(b, `,"write":true`...)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// classroomBody is one POST template of a classroom mix.
type classroomBody struct {
	name string
	req  any // the endpoint's request type
	body []byte
}

// classroomBodies returns every POST template shape of the classroom-
// repeat mix (no max_steps) and the classroom-fresh mix (max_steps set,
// plus the speedup life template).
func classroomBodies(t testing.TB) []classroomBody {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var out []classroomBody
	for _, steps := range []int64{0, 1_000_017} {
		mix := "repeat"
		if steps != 0 {
			mix = "fresh"
		}
		out = append(out,
			classroomBody{mix + "/asm-loop", AsmRunRequest{}, marshal(benchSourceBody{Source: benchAsmLoop(17), MaxSteps: steps})},
			classroomBody{mix + "/asm-exit", AsmRunRequest{}, marshal(benchSourceBody{Source: benchAsmExit(3), MaxSteps: steps})},
			classroomBody{mix + "/minic-sum", MinicCompileRequest{}, marshal(benchSourceBody{Source: benchMinic(42), Run: true, MaxSteps: steps})},
			classroomBody{mix + "/cache-256", CacheSimRequest{}, benchTrace(256, 0, 1<<16)},
			classroomBody{mix + "/vm-64", VMSimRequest{}, benchTrace(64, 3, 64*256)},
			classroomBody{mix + "/life-32", LifeRunRequest{}, marshal(benchLifeBody{Rows: 32, Cols: 32, Iters: 20, Seed: 1<<40 + 5})},
			classroomBody{mix + "/life-128-t2", LifeRunRequest{}, marshal(benchLifeBody{Rows: 128, Cols: 128, Iters: 20, Seed: 1<<40 + 6, Threads: 2})},
			classroomBody{mix + "/life-256-packed", LifeRunRequest{}, marshal(benchLifeBody{Rows: 256, Cols: 256, Iters: 20, Seed: 1<<40 + 7, Threads: 2, Packed: true})},
			classroomBody{mix + "/life-128-dist", LifeRunRequest{}, marshal(benchLifeBody{Rows: 128, Cols: 128, Iters: 20, Seed: 1<<40 + 8, Threads: 2, Engine: "dist"})},
		)
	}
	out = append(out, classroomBody{"fresh/life-speedup", LifeRunRequest{},
		marshal(benchLifeBody{Rows: 32, Cols: 32, Iters: 20, Seed: 1<<40 + 1<<36 + 9, Threads: 2, Speedup: true})})
	return out
}

// TestDecodeAcceptsClassroomTemplates: every POST template of both
// classroom mixes is in the strict reader's subset, so registerJSON
// serves them without encoding/json, and it decodes each to
// encoding/json's value.
func TestDecodeAcceptsClassroomTemplates(t *testing.T) {
	for _, cb := range classroomBodies(t) {
		if !checkAgrees(t, cb.body, cb.req) {
			t.Errorf("%s: strict reader declined the template body %.120q", cb.name, cb.body)
		}
	}
}

// jsonTags maps each json tag name of struct type rt to its field type.
func jsonTags(rt reflect.Type) map[string]reflect.Type {
	tags := make(map[string]reflect.Type)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		tags[name] = f.Type
	}
	return tags
}

// sampleJSON is a JSON value of type ft that sets every field it holds.
func sampleJSON(ft reflect.Type) string {
	switch ft.Kind() {
	case reflect.String:
		return `"x\ty"`
	case reflect.Bool:
		return `true`
	case reflect.Int, reflect.Int64:
		return `-3`
	case reflect.Uint64:
		return `3`
	case reflect.Float64:
		return `0.25`
	case reflect.Slice:
		var fields []string
		for name, et := range jsonTags(ft.Elem()) {
			fields = append(fields, strconv.Quote(name)+":"+sampleJSON(et))
		}
		return `[{` + strings.Join(fields, ",") + `}]`
	}
	panic("no sample for " + ft.String())
}

// TestDecodeKeysMatchTags: each type's accepted keys are exactly its json
// tag names. A body setting every field is accepted, and so is every tag,
// and every tag of a trace element, alone with a value of its field's
// type; every other request's tags and every case-folded spelling are
// declined. A field added to a request struct without its case in the
// field switch fails here instead of quietly moving its endpoint onto the
// encoding/json path.
func TestDecodeKeysMatchTags(t *testing.T) {
	keys := map[string]bool{}
	for _, rt := range []reflect.Type{reflect.TypeOf(TraceAccess{}), reflect.TypeOf(VMAccess{})} {
		for name := range jsonTags(rt) {
			keys[name] = true
		}
	}
	for _, req := range requestTypes {
		for name := range jsonTags(reflect.TypeOf(req)) {
			keys[name] = true
			keys[strings.ToUpper(name[:1])+name[1:]] = true
		}
	}
	for _, req := range requestTypes {
		tags := jsonTags(reflect.TypeOf(req))
		var all []string
		for key, ft := range tags {
			all = append(all, strconv.Quote(key)+":"+sampleJSON(ft))
		}
		if body := []byte(`{` + strings.Join(all, ",") + `}`); !checkAgrees(t, body, req) {
			t.Errorf("%T: declined a body setting every field: %s", req, body)
		}
		for key := range keys {
			ft, isTag := tags[key]
			value := `1`
			if isTag {
				value = sampleJSON(ft)
			}
			body := []byte(`{` + strconv.Quote(key) + `:` + value + `}`)
			if accepted := checkAgrees(t, body, req); accepted != isTag {
				t.Errorf("%T: key %q accepted=%v, want %v", req, key, accepted, isTag)
			}
			if !isTag || ft.Kind() != reflect.Slice {
				continue
			}
			elemTags := jsonTags(ft.Elem())
			for ekey := range keys {
				et, isElemTag := elemTags[ekey]
				evalue := `1`
				if isElemTag {
					evalue = sampleJSON(et)
				}
				body := []byte(`{` + strconv.Quote(key) + `:[{` + strconv.Quote(ekey) + `:` + evalue + `}]}`)
				if accepted := checkAgrees(t, body, req); accepted != isElemTag {
					t.Errorf("%T: trace key %q accepted=%v, want %v", req, ekey, accepted, isElemTag)
				}
			}
		}
	}
}

// TestDecodeDeclines pins the strict subset's edges: each body is valid
// input to encoding/json (or an error it must report), and the reader
// must leave it to encoding/json.
func TestDecodeDeclines(t *testing.T) {
	for _, tc := range []struct {
		req  any
		body string
	}{
		{LifeRunRequest{}, `{"rows":8,"rows":8}`},
		{CacheSimRequest{}, `{"trace":[{"addr":1,"addr":2}]}`},
		{LifeRunRequest{}, `{"rows":null}`},
		{VMSimRequest{}, `{"trace":null}`},
		{LifeRunRequest{}, `{"rows":1.0}`},
		{LifeRunRequest{}, `{"rows":1e2}`},
		{LifeRunRequest{}, `{"rows":9223372036854775808}`},
		{LifeRunRequest{}, `{"seed":-9223372036854775809}`},
		{LifeRunRequest{}, `{"rows":01}`},
		{LifeRunRequest{}, `{"density":1e400}`},
		{CacheSimRequest{}, `{"trace":[{"addr":-1}]}`},
		{CacheSimRequest{}, `{"trace":[{"addr":-0}]}`},
		{CacheSimRequest{}, `{"trace":[{"addr":18446744073709551616}]}`},
		{AsmRunRequest{}, `{"source":"\udc00"}`},
		{AsmRunRequest{}, "{\"source\":\"a\xffb\"}"},
		{AsmRunRequest{}, "{\"source\":\"\xed\xa0\x80\"}"},
		{AsmRunRequest{}, "{\"source\":\"a\tb\"}"},
		{AsmRunRequest{}, `{"source":"\x41"}`},
		{AsmRunRequest{}, `{"source":"a"} x`},
		{AsmRunRequest{}, "\xef\xbb\xbf{\"source\":\"a\"}"},
		{AsmRunRequest{}, `["source"]`},
		{AsmRunRequest{}, `null`},
		{AsmRunRequest{}, ``},
		{MinicCompileRequest{}, `{"run":1}`},
		{MinicCompileRequest{}, `{"run":"true"}`},
		{LifeRunRequest{}, `{"engine":7}`},
	} {
		if _, ok := strictDecode([]byte(tc.body), tc.req); ok {
			t.Errorf("%T: strict reader accepted %q", tc.req, tc.body)
		}
	}
}

// TestDecodeAccepts pins bodies inside the subset whose decoding differs
// from a naive reading, against encoding/json's value.
func TestDecodeAccepts(t *testing.T) {
	for _, tc := range []struct {
		req  any
		body string
	}{
		{CacheSimRequest{}, `{"trace":[]}`}, // an empty, non-nil slice
		{CacheSimRequest{}, " \t\r\n{ \"trace\" : [ { \"addr\" : 0 , \"write\" : false } ] , \"repl\" : \"fifo\" } \n"},
		{AsmRunRequest{}, `{}`},
		{AsmRunRequest{}, `{"source":"","stdin":"\"\\\/\b\f\n\r\t\u0000é€￿"}`},
		{AsmRunRequest{}, "{\"source\":\"héllo 世界 \U0001F600 \x7f\"}"},
		{AsmRunRequest{}, `{"source":"a<b","max_steps":-9223372036854775808}`},
		{LifeRunRequest{}, `{"seed":9223372036854775807,"rows":-0,"density":-0.0}`},
		{LifeRunRequest{}, `{"density":1.5e-3}`},
		{LifeRunRequest{}, `{"density":2E+1}`},
		{VMSimRequest{}, `{"page_size":18446744073709551615,"trace":[{"pid":-1,"addr":0}]}`},
	} {
		if !checkAgrees(t, []byte(tc.body), tc.req) {
			t.Errorf("%T: strict reader declined %q", tc.req, tc.body)
		}
	}
}

// TestReadBody: the body is read whole whatever Content-Length claims,
// and a read past the cap returns the capped prefix with the error.
func TestReadBody(t *testing.T) {
	for _, declared := range []int64{-1, 0, 3, 6, 100, 1 << 30} {
		got, err := readBody(strings.NewReader("abcdef"), declared)
		if err != nil || string(got) != "abcdef" {
			t.Errorf("declared %d: got %q, %v", declared, got, err)
		}
	}
	big := strings.Repeat("x", maxBodyBytes+10)
	body := http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(big)), maxBodyBytes)
	got, err := readBody(body, int64(len(big)))
	var tooBig *http.MaxBytesError
	if len(got) != maxBodyBytes || !errors.As(err, &tooBig) {
		t.Errorf("over the cap: read %d bytes, err %v", len(got), err)
	}
}

// FuzzDecodeRequest holds the strict reader to encoding/json: whenever it
// accepts a body as one of the five POST request types, encoding/json
// (unknown fields disallowed) accepts it too and decodes a DeepEqual
// value, with no string aliasing the body's bytes.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range decodeGoldenCases {
		body := tc.body
		if len(body) > 4096 {
			// The over-cap cases test the read, not the reader; their
			// shape, cut to a fuzzable size, is what the reader sees.
			body = body[:4096]
		}
		f.Add([]byte(body))
	}
	for _, cb := range classroomBodies(f) {
		f.Add(cb.body)
	}
	every, err := json.Marshal(LifeRunRequest{Rows: 48, Cols: 70, Iters: 16, Seed: 7, Density: 0.45,
		Threads: 4, Partition: "rows", Engine: "dist", Packed: true, Speedup: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(every)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, req := range requestTypes {
			checkAgrees(t, body, req)
		}
	})
}

// BenchmarkDecode times the classroom mix's two trace bodies three ways:
// the strict reader alone, encoding/json's Decoder alone (the path every
// body took before the strict reader), and a whole in-process memo hit
// through the handler stack.
func BenchmarkDecode(b *testing.B) {
	for _, cb := range classroomBodies(b) {
		var path string
		switch cb.name {
		case "repeat/cache-256":
			path = "/v1/cache/sim"
		case "repeat/vm-64":
			path = "/v1/vm/sim"
		default:
			continue
		}
		name := strings.TrimPrefix(cb.name, "repeat/")
		b.Run(name+"/strict", func(b *testing.B) {
			b.ReportAllocs()
			v := reflect.New(reflect.TypeOf(cb.req)).Interface()
			for i := 0; i < b.N; i++ {
				if !decodeRequest(cb.body, v) {
					b.Fatal("declined")
				}
			}
		})
		b.Run(name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			v := reflect.New(reflect.TypeOf(cb.req)).Interface()
			for i := 0; i < b.N; i++ {
				dec := json.NewDecoder(bytes.NewReader(cb.body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/hit", func(b *testing.B) {
			s := New(Config{Workers: 1})
			b.Cleanup(func() { s.Shutdown(context.Background()) })
			h := s.Handler()
			post := func() *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(cb.body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec
			}
			if rec := post(); rec.Code != http.StatusOK {
				b.Fatalf("prime: %d %s", rec.Code, rec.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := post(); rec.Header().Get(cacheHeader) != "hit" {
					b.Fatalf("not a hit: %d", rec.Code)
				}
			}
		})
	}
}
