package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"cs31/internal/labd"
	"cs31/internal/obs"
)

// benchSpec is BENCHMARK.json in full.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesCode holds BENCHMARK.json to the workloads and metrics
// this command defines, and to the schema's limits.
func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(s.Workloads))
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(s.PerLayer))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(s.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range s.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q, the command's is %q with another why", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d: %s %s, the command prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	if m := s.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower better; got %+v", m)
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		checkName(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: %s %s, the command prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %s: better %q", m.Name, m.Better)
		}
	}
}

// inProcess starts labd in the test process behind httptest, for the
// smoke test; the benchmark proper spawns the cmd/labd binary.
func inProcess(traced bool) (*server, error) {
	var tr *obs.Trace
	if traced {
		tr = obs.New()
	}
	s := labd.New(labd.Config{Workers: labdWorkers, QueueDepth: labdQueue, Trace: tr})
	ts := httptest.NewServer(s.Handler())
	stop := func() ([]byte, error) {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			return nil, err
		}
		if tr == nil {
			return nil, nil
		}
		var buf bytes.Buffer
		err := tr.WriteChromeTrace(&buf)
		return buf.Bytes(), err
	}
	return &server{url: ts.URL, pid: os.Getpid(), stop: stop}, nil
}

// inProcessRef serves the reference handler in the test process.
func inProcessRef(bool) (*server, error) {
	ts := httptest.NewServer(referenceHandler())
	return &server{url: ts.URL, pid: os.Getpid(), stop: func() ([]byte, error) { ts.Close(); return nil, nil }}, nil
}

// smallWorkload shrinks a workload to about a second of smoke testing.
func smallWorkload(w workload) *workload {
	switch {
	case w.tracedReqs > 0:
		w.rate, w.warmup, w.tracedReqs = 400, 20, 300
	case w.rows > 1000:
		w.rows, w.cols, w.gens, w.warmRuns, w.tracedRuns = 96, 96, 4, 1, 2
	default:
		w.rows, w.cols, w.gens, w.warmRuns, w.tracedRuns = 32, 32, 4, 2, 3
	}
	return &w
}

// TestSmoke runs every workload briefly, traced, against an in-process
// labd: no operation may fail, every declared metric must print with its
// unit, and the traced split must add up. It asserts no timings.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		w := smallWorkload(*full)
		t.Run(w.name, func(t *testing.T) {
			var log bytes.Buffer
			tl := &tally{log: &log}
			cfg := runConfig{seed: 7, window: time.Second, traced: true, start: inProcess, startRef: inProcessRef,
				setups: 2, replayPerTemplate: 3}
			vals, err := w.run(w, cfg, tl)
			if err != nil {
				t.Fatal(err)
			}
			if !tl.correct() || tl.attempted.Load() == 0 {
				t.Fatalf("attempted %d, failed %d, invalid %v:\n%s", tl.attempted.Load(), tl.failed.Load(), tl.invalid, log.String())
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				var out bytes.Buffer
				if err := report(&out, w.name, cfg.seed, newResult(vals, tl, defs), defs); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(defs) {
					t.Errorf("result %+v", res)
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or without unit %s", d.name, d.unit)
					}
					if !strings.Contains(out.String(), d.name) {
						t.Errorf("metric %s not printed", d.name)
					}
				}
			}
			for _, d := range endToEnd {
				if vals[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, vals[d.name])
				}
			}
			if vals["obs.dropped_events"] != 0 {
				t.Errorf("%v trace events dropped", vals["obs.dropped_events"])
			}
			// The residual is defined as what the layers leave of the
			// total, so the split accounts for the time only if no layer
			// is negative and the layers do not add up to more than the
			// total, as double-counted spans would.
			total := vals["self.total_ms"]
			if total <= 0 {
				t.Errorf("traced total %v ms", total)
			}
			for _, m := range []string{"bench", "labd_front", "sched_queue", "handler", "marshal", "life_kernel", "barrier", "halo"} {
				if v := vals["self."+m+"_ms"]; v < 0 {
					t.Errorf("self.%s_ms = %v, want >= 0", m, v)
				}
			}
			if r := vals["self.residual_ms"]; r < 0 || r > total {
				t.Errorf("self.residual_ms = %v, want within [0, %v]", r, total)
			}
		})
	}
}

// TestMixDealsExactProportions checks that every deck-length run of
// requests carries each template exactly its weight.
func TestMixDealsExactProportions(t *testing.T) {
	for _, fresh := range []bool{false, true} {
		m := newMix(3, fresh)
		n := int64(len(m.deck))
		for block := int64(0); block < 5; block++ {
			count := map[*tmpl]int{}
			for i := block * n; i < (block+1)*n; i++ {
				count[m.at(phasePaced, i).t]++
			}
			for _, tp := range m.tmpls {
				want := tp.repeatWeight
				if fresh {
					want = tp.freshWeight
				}
				if count[tp] != want {
					t.Errorf("fresh=%v block %d: %s dealt %d times, weight %d", fresh, block, tp.name, count[tp], want)
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"identical", base, base, true, "same"},
		{"clearly faster", base, shift(10), true, "better"},
		{"clearly slower", base, shift(-10), true, "worse"},
		{"lower is better", base, shift(-10), false, "better"},
		{"slower within bound", base, shift(-2), true, "same"},
		{"noisy", base, noisy, true, "unresolved"},
	} {
		if got := verdict(tc.a, tc.b, tc.higher, 0.05); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareExcludesIncorrectRuns checks that compare judges only
// correct runs and calls a workload invalid when B has more incorrect
// runs than A, however good B's numbers read.
func TestCompareExcludesIncorrectRuns(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads": [{"name": "w"}],
		"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, runs ...string) string {
		path := filepath.Join(dir, name)
		var b strings.Builder
		for _, r := range runs {
			b.WriteString(r + "\n")
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := func(v float64, correct bool, failed int) string {
		line, err := json.Marshal(record{Workload: "w", result: result{Correct: correct, Attempted: 10, Failed: int64(failed),
			Metrics: map[string]metricValue{"latency_ms": {Value: v, Unit: "ms"}}}})
		if err != nil {
			t.Fatal(err)
		}
		return string(line)
	}
	a := write("a.jsonl", run(10, true, 0), run(10.1, true, 0), run(9.9, true, 0))
	for _, tc := range []struct {
		name     string
		b        []string
		code     int
		verdict  string
		excluded string
	}{
		{"B fails more", []string{run(5, true, 0), run(5, false, 0), run(5, true, 1)}, 1, "invalid", "A 0, B 2"},
		{"all correct", []string{run(10, true, 0), run(10.1, true, 0), run(9.9, true, 0)}, 0, "same", ""},
	} {
		var out, errOut bytes.Buffer
		code := compare([]string{a, write("b.jsonl", tc.b...)}, spec, &out, &errOut)
		if code != tc.code || !strings.Contains(out.String(), tc.verdict+"\n") {
			t.Errorf("%s: exit %d, want %d with verdict %s:\n%s%s", tc.name, code, tc.code, tc.verdict, out.String(), errOut.String())
		}
		if tc.excluded != "" && !strings.Contains(out.String(), tc.excluded) {
			t.Errorf("%s: output does not report excluded runs %q:\n%s", tc.name, tc.excluded, out.String())
		}
	}
	// With as many incorrect runs on both sides, the incorrect ones are
	// left out and the correct ones judged.
	aBad := write("a2.jsonl", run(10, true, 0), run(10.1, true, 0), run(9.9, true, 0), run(50, false, 0))
	var out bytes.Buffer
	if code := compare([]string{aBad, write("b2.jsonl", run(10, true, 0), run(10.1, true, 0), run(9.9, true, 0), run(1, false, 0))},
		spec, &out, io.Discard); code != 0 || !strings.Contains(out.String(), "same\n") {
		t.Errorf("equal incorrect counts: exit %d:\n%s", code, out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
