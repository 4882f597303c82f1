package labd

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Request decoding. decodeBody reads every POST body once (readBody)
// and hands the bytes to a strict single-pass reader that fills the
// endpoint's request struct without reflection, one field switch per
// type. The reader covers the subset of JSON on which its result is the
// value encoding/json produces, and it only accepts or declines; it never
// produces an error. It declines:
//
//   - a key not spelled exactly as a json tag (encoding/json also matches
//     case-folded keys), and a key repeated within one object
//     (encoding/json lets the later value win, and decodes a second array
//     into the first one's elements, so their unset fields survive);
//   - null (encoding/json leaves a scalar alone and nils a slice);
//   - a fraction, an exponent, or an out-of-range value in an integer
//     field, and a negative value in an unsigned one;
//   - a \u escape of a UTF-16 surrogate and invalid UTF-8 in a string
//     (encoding/json substitutes U+FFFD), and a raw control byte;
//   - any value of the wrong JSON type, a top level that is not an
//     object, and anything but whitespace after it.
//
// On a decline, decodeBody runs encoding/json's Decoder over the same
// bytes into a fresh value, so every request decodes to exactly the
// value, status and error text it always had. FuzzDecodeRequest holds an
// accepted body to encoding/json's value.

// maxBodyBytes caps a POST body; a longer body is a 413.
const maxBodyBytes = 1 << 20

// maxObjectKeys bounds the keys of one object the reader accepts. The
// widest request struct has 11 fields, and an object with more keys than
// its struct has fields must repeat one, which declines anyway.
const maxObjectKeys = 16

// readBody reads r to EOF in one pass, into a buffer presized from the
// request's declared Content-Length, so a body that arrives whole costs
// one allocation. On a read error (past the cap, or a client failure) it
// returns the bytes read so far with the error.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	size := 512
	if declared > 0 {
		// One byte past the body leaves room for the read that sees EOF.
		size = int(min(declared, maxBodyBytes)) + 1
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeBody reads r's body once, capped at maxBodyBytes, and decodes it
// into *req: by the strict reader when it accepts the bytes, otherwise
// (or when the read failed) by encoding/json's Decoder, unknown fields
// disallowed, into a fresh value. The Decoder reads the bytes already
// read followed by the rest of the body, a MaxBytesReader that repeats
// its first error (or EOF) on every later read, so it meets the same
// bytes and the same read error it would have read itself.
func decodeBody[Req any](r *http.Request, req *Req) error {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	buf, err := readBody(body, r.ContentLength)
	if err == nil && decodeRequest(buf, req) {
		return nil
	}
	var zero Req
	*req = zero
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(buf), body))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// decodeRequest fills *req from body and reports whether the strict
// reader accepted it. req is one of the five POST request types; on a
// decline *req may be partly filled and must be discarded.
func decodeRequest(body []byte, req any) bool {
	r := reader{b: body}
	var ok bool
	switch req := req.(type) {
	case *AsmRunRequest:
		ok = r.asmRun(req)
	case *MinicCompileRequest:
		ok = r.minicCompile(req)
	case *CacheSimRequest:
		ok = r.cacheSim(req)
	case *VMSimRequest:
		ok = r.vmSim(req)
	case *LifeRunRequest:
		ok = r.lifeRun(req)
	}
	r.space()
	return ok && r.i == len(r.b)
}

func (r *reader) asmRun(req *AsmRunRequest) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "source":
			return r.str(&req.Source)
		case "stdin":
			return r.str(&req.Stdin)
		case "max_steps":
			return r.int64(&req.MaxSteps)
		}
		return false
	})
}

func (r *reader) minicCompile(req *MinicCompileRequest) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "source":
			return r.str(&req.Source)
		case "run":
			return r.bool(&req.Run)
		case "stdin":
			return r.str(&req.Stdin)
		case "max_steps":
			return r.int64(&req.MaxSteps)
		}
		return false
	})
}

func (r *reader) cacheSim(req *CacheSimRequest) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "size_bytes":
			return r.int(&req.SizeBytes)
		case "block_size":
			return r.int(&req.BlockSize)
		case "assoc":
			return r.int(&req.Assoc)
		case "write":
			return r.str(&req.Write)
		case "alloc":
			return r.str(&req.Alloc)
		case "repl":
			return r.str(&req.Repl)
		case "trace":
			return readTrace(r, &req.Trace, func(a *TraceAccess, key []byte) bool {
				switch string(key) {
				case "addr":
					return r.uint64(&a.Addr)
				case "write":
					return r.bool(&a.Write)
				}
				return false
			})
		case "workload":
			return r.str(&req.Workload)
		case "rows":
			return r.int(&req.Rows)
		case "cols":
			return r.int(&req.Cols)
		case "table_n":
			return r.int(&req.TableN)
		}
		return false
	})
}

func (r *reader) vmSim(req *VMSimRequest) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "page_size":
			return r.uint64(&req.PageSize)
		case "num_frames":
			return r.int(&req.NumFrames)
		case "tlb_size":
			return r.int(&req.TLBSize)
		case "num_pages":
			return r.uint64(&req.NumPages)
		case "trace":
			return readTrace(r, &req.Trace, func(a *VMAccess, key []byte) bool {
				switch string(key) {
				case "pid":
					return r.int(&a.Pid)
				case "addr":
					return r.uint64(&a.Addr)
				case "write":
					return r.bool(&a.Write)
				}
				return false
			})
		}
		return false
	})
}

func (r *reader) lifeRun(req *LifeRunRequest) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "rows":
			return r.int(&req.Rows)
		case "cols":
			return r.int(&req.Cols)
		case "iters":
			return r.int(&req.Iters)
		case "seed":
			return r.int64(&req.Seed)
		case "density":
			return r.float64(&req.Density)
		case "threads":
			return r.int(&req.Threads)
		case "partition":
			return r.str(&req.Partition)
		case "engine":
			return r.str(&req.Engine)
		case "packed":
			return r.bool(&req.Packed)
		case "speedup":
			return r.bool(&req.Speedup)
		}
		return false
	})
}

// reader is the strict reader's cursor over one body. Every method skips
// leading whitespace, consumes one token or value on success, and returns
// false to decline.
type reader struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (r *reader) space() {
	i := r.i
	for i < len(r.b) && r.b[i] <= ' ' && (r.b[i] == ' ' || r.b[i] == '\t' || r.b[i] == '\n' || r.b[i] == '\r') {
		i++
	}
	r.i = i
}

// next consumes c if it is the next non-space byte.
func (r *reader) next(c byte) bool {
	r.space()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// object reads one object, calling field with each key and the cursor at
// the key's value. field declines a key outside its struct's tags.
func (r *reader) object(field func(key []byte) bool) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	var seen [maxObjectKeys][]byte
	for n := 0; ; n++ {
		key, ok := r.key()
		if !ok || n == len(seen) {
			return false
		}
		for _, k := range seen[:n] {
			if string(k) == string(key) {
				return false
			}
		}
		seen[n] = key
		if !r.next(':') || !field(key) {
			return false
		}
		if !r.next(',') {
			return r.next('}')
		}
	}
}

// key reads an object key as its raw bytes. Tags hold no escapes, so a
// key with one declines rather than being compared undecoded.
func (r *reader) key() ([]byte, bool) {
	if !r.next('"') {
		return nil, false
	}
	b, start := r.b, r.i
	for i := start; i < len(b); i++ {
		switch b[i] {
		case '"':
			r.i = i + 1
			return b[start:i], true
		case '\\':
			return nil, false
		}
	}
	return nil, false
}

// traceBytesPerAccess sizes a trace slice before decoding it: one access
// per this many bytes left in the body. A classroom access is about that
// long ({"addr":12345}, its comma, and a write in four), so the guess
// usually fits in one allocation, and a wrong one costs at most a slice
// 1.5 times the body's size (a VMAccess is 24 bytes), or append's growth.
const traceBytesPerAccess = 16

// readTrace reads an array of objects into *dst, calling field with each
// element's keys. Like encoding/json, it decodes [] to an empty, non-nil
// slice.
func readTrace[T any](r *reader, dst *[]T, field func(elem *T, key []byte) bool) bool {
	if !r.next('[') {
		return false
	}
	trace := make([]T, 0, (len(r.b)-r.i)/traceBytesPerAccess)
	if !r.next(']') {
		for {
			trace = append(trace, *new(T))
			elem := &trace[len(trace)-1]
			if !r.object(func(key []byte) bool { return field(elem, key) }) {
				return false
			}
			if !r.next(',') {
				break
			}
		}
		if !r.next(']') {
			return false
		}
	}
	*dst = trace
	return true
}

// plain reports a string byte that stands for itself: printable ASCII
// other than the quote and the backslash.
func plain(c byte) bool {
	return c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\'
}

// str reads a string into *dst, which owns a copy of its bytes. A string
// of plain bytes is copied once; one with escapes or UTF-8 takes strEsc.
func (r *reader) str(dst *string) bool {
	if !r.next('"') {
		return false
	}
	b, start, i := r.b, r.i, r.i
	for i < len(b) && plain(b[i]) {
		i++
	}
	if r.i = i; i < len(b) && b[i] == '"' {
		*dst = string(b[start:i])
		r.i++
		return true
	}
	return r.strEsc(start, dst)
}

// strEsc finishes a string whose bytes from r.i on need decoding. It
// finds the closing quote first, so the result, never longer than its
// source, is built in one allocation.
func (r *reader) strEsc(start int, dst *string) bool {
	end := r.i
	for end < len(r.b) && r.b[end] != '"' {
		if r.b[end] == '\\' {
			end++ // the escaped byte cannot close the string
		}
		end++
	}
	if end >= len(r.b) {
		return false
	}
	var sb strings.Builder
	sb.Grow(end - start)
	sb.Write(r.b[start:r.i])
	for i := r.i; i < end; {
		j := i
		for j < end && plain(r.b[j]) {
			j++
		}
		sb.Write(r.b[i:j])
		if i = j; i == end {
			break
		}
		switch c := r.b[i]; {
		case c == '\\':
			n, ok := r.escape(&sb, i+1, end)
			if !ok {
				return false
			}
			i += 1 + n
		case c < 0x20:
			return false
		default:
			ru, size := utf8.DecodeRune(r.b[i:end])
			if ru == utf8.RuneError && size == 1 {
				return false
			}
			sb.Write(r.b[i : i+size])
			i += size
		}
	}
	*dst = sb.String()
	r.i = end + 1
	return true
}

// escape decodes the escape whose letter is at r.b[i], before end, and
// returns how many bytes it spans after the backslash.
func (r *reader) escape(sb *strings.Builder, i, end int) (int, bool) {
	switch c := r.b[i]; c {
	case '"', '\\', '/':
		sb.WriteByte(c)
	case 'b':
		sb.WriteByte('\b')
	case 'f':
		sb.WriteByte('\f')
	case 'n':
		sb.WriteByte('\n')
	case 'r':
		sb.WriteByte('\r')
	case 't':
		sb.WriteByte('\t')
	case 'u':
		if end-i < 5 {
			return 0, false
		}
		var ru rune
		for _, h := range r.b[i+1 : i+5] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return 0, false
			}
			ru = ru<<4 | rune(h)
		}
		if utf16.IsSurrogate(ru) {
			return 0, false
		}
		sb.WriteRune(ru)
		return 5, true
	default:
		return 0, false
	}
	return 1, true
}

func (r *reader) bool(dst *bool) bool {
	r.space()
	switch rest := r.b[r.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		r.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		r.i += 5
	default:
		return false
	}
	return true
}

// integer reads an integer: an optional minus sign and the digits of a
// JSON integer, with no fraction or exponent. It returns the magnitude,
// declining one past 64 bits.
func (r *reader) integer() (mag uint64, neg, ok bool) {
	r.space()
	if r.i < len(r.b) && r.b[r.i] == '-' {
		neg = true
		r.i++
	}
	b, start, i := r.b, r.i, r.i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		mag = mag*10 + uint64(b[i]-'0')
	}
	r.i = i
	switch digits := b[start:i]; {
	case len(digits) == 0, len(digits) > 1 && digits[0] == '0':
		return 0, false, false
	case len(digits) > 19: // 19 digits always fit; past that the sum may have wrapped
		var err error
		if mag, err = strconv.ParseUint(string(digits), 10, 64); err != nil {
			return 0, false, false
		}
	}
	if r.i < len(r.b) {
		switch r.b[r.i] {
		case '.', 'e', 'E':
			return 0, false, false
		}
	}
	return mag, neg, true
}

func (r *reader) int64(dst *int64) bool {
	mag, neg, ok := r.integer()
	switch {
	case !ok, neg && mag > 1<<63, !neg && mag > math.MaxInt64:
		return false
	case neg:
		*dst = int64(-mag)
	default:
		*dst = int64(mag)
	}
	return true
}

func (r *reader) int(dst *int) bool {
	var v int64
	if !r.int64(&v) || v < math.MinInt || v > math.MaxInt {
		return false
	}
	*dst = int(v)
	return true
}

func (r *reader) uint64(dst *uint64) bool {
	mag, neg, ok := r.integer()
	if !ok || neg {
		return false
	}
	*dst = mag
	return true
}

// float64 reads a number in JSON's grammar and parses it as
// encoding/json does, declining one out of float64's range.
func (r *reader) float64(dst *float64) bool {
	r.space()
	start := r.i
	if r.i < len(r.b) && r.b[r.i] == '-' {
		r.i++
	}
	switch {
	case r.i < len(r.b) && r.b[r.i] == '0':
		r.i++
	case !r.digits():
		return false
	}
	if r.i < len(r.b) && r.b[r.i] == '.' {
		r.i++
		if !r.digits() {
			return false
		}
	}
	if r.i < len(r.b) && (r.b[r.i] == 'e' || r.b[r.i] == 'E') {
		r.i++
		if r.i < len(r.b) && (r.b[r.i] == '+' || r.b[r.i] == '-') {
			r.i++
		}
		if !r.digits() {
			return false
		}
	}
	v, err := strconv.ParseFloat(string(r.b[start:r.i]), 64)
	if err != nil {
		return false
	}
	*dst = v
	return true
}

// digits consumes a run of at least one decimal digit.
func (r *reader) digits() bool {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i > start
}
