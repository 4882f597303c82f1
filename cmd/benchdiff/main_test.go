package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// sampleRun is `go test -bench -cpu 1` output: names carry no GOMAXPROCS
// suffix, so sub-benchmark suffixes like /threads-2 are preserved verbatim.
const sampleRun = `goos: linux
goarch: amd64
pkg: cs31
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLifeSpeedup/threads-1         	   18613	     66774 ns/op
BenchmarkLifeSpeedup/threads-2         	    9000	    120000 ns/op
BenchmarkMachineArithLoop              	     976	   1258780 ns/op	    160004 steps
BenchmarkMachineArithLoop              	     980	   1200000 ns/op	    160004 steps
BenchmarkCacheLookup                   	    2293	    460628 ns/op	        50.11 hit-%
BenchmarkCacheStride/rowmajor          	   24022	     54982 ns/op	        93.75 hit-%
PASS
ok  	cs31	4.727s
`

func parseSample(t *testing.T) map[string]*RunResult {
	t.Helper()
	res, err := parseBench(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParseBench(t *testing.T) {
	res := parseSample(t)
	if len(res) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5: %v", len(res), res)
	}
	arith := res["BenchmarkMachineArithLoop"]
	if arith == nil {
		t.Fatal("BenchmarkMachineArithLoop missing")
	}
	if res["BenchmarkLifeSpeedup/threads-2"] == nil {
		t.Fatal("sub-benchmark suffix was mangled")
	}
	if arith.NsPerOp != 1200000 {
		t.Errorf("best-of ns/op = %v, want 1200000", arith.NsPerOp)
	}
	if arith.Metrics["steps"] != 160004 {
		t.Errorf("steps metric = %v, want 160004", arith.Metrics["steps"])
	}
	if res["BenchmarkCacheLookup"].Metrics["hit-%"] != 50.11 {
		t.Errorf("hit-%% metric = %v", res["BenchmarkCacheLookup"].Metrics["hit-%"])
	}
}

func TestComparePassesAtBaseline(t *testing.T) {
	res := parseSample(t)
	base := &Baseline{Benchmarks: map[string]BaselineEntry{
		"BenchmarkMachineArithLoop": {NsPerOp: 1100000, Metrics: map[string]float64{"steps": 160004}},
		"BenchmarkCacheLookup":      {NsPerOp: 450000, Metrics: map[string]float64{"hit-%": 50.11}},
		"BenchmarkNotRunThisTime":   {NsPerOp: 1, Metrics: map[string]float64{"x": 1}},
	}}
	nsFails, shapeFails, nsGated, shapes := compare(base, res, 1.25, 0.005, false)
	if len(nsFails) != 0 || len(shapeFails) != 0 {
		t.Fatalf("unexpected failures: %v %v", nsFails, shapeFails)
	}
	if nsGated != 2 || shapes != 2 {
		t.Errorf("gated %d / shapes %d, want 2 / 2", nsGated, shapes)
	}
}

func TestCompareFlagsNsRegression(t *testing.T) {
	res := parseSample(t)
	base := &Baseline{Benchmarks: map[string]BaselineEntry{
		"BenchmarkMachineArithLoop": {NsPerOp: 900000},
	}}
	nsFails, shapeFails, _, _ := compare(base, res, 1.25, 0.005, false)
	if len(nsFails) != 1 || len(shapeFails) != 0 {
		t.Fatalf("want 1 ns/op failure and no shape failures, got %v %v", nsFails, shapeFails)
	}
	// -shapes-only must suppress the same regression.
	nsFails, shapeFails, _, _ = compare(base, res, 1.25, 0.005, true)
	if len(nsFails) != 0 || len(shapeFails) != 0 {
		t.Fatalf("shapes-only still failed: %v %v", nsFails, shapeFails)
	}
}

func TestCompareFlagsShapeDrift(t *testing.T) {
	res := parseSample(t)
	base := &Baseline{Benchmarks: map[string]BaselineEntry{
		"BenchmarkCacheStride/rowmajor": {Metrics: map[string]float64{"hit-%": 96.88}},
	}}
	nsFails, shapeFails, _, _ := compare(base, res, 1.25, 0.005, false)
	if len(nsFails) != 0 || len(shapeFails) != 1 || !strings.Contains(shapeFails[0], "drifted") {
		t.Fatalf("want 1 shape-drift failure, got %v %v", nsFails, shapeFails)
	}
}

// TestCompareSeparatesNsFromShape pins the split -advisory relies on: a run
// with both a timing regression and a shape drift must report them in the
// separate slices so advisory mode can warn on the former and fail only on
// the latter.
func TestCompareSeparatesNsFromShape(t *testing.T) {
	res := parseSample(t)
	base := &Baseline{Benchmarks: map[string]BaselineEntry{
		"BenchmarkMachineArithLoop":     {NsPerOp: 900000},
		"BenchmarkCacheStride/rowmajor": {Metrics: map[string]float64{"hit-%": 96.88}},
	}}
	nsFails, shapeFails, _, _ := compare(base, res, 1.25, 0.005, false)
	if len(nsFails) != 1 || !strings.Contains(nsFails[0], "ns/op") {
		t.Fatalf("want 1 ns/op failure, got %v", nsFails)
	}
	if len(shapeFails) != 1 || !strings.Contains(shapeFails[0], "drifted") {
		t.Fatalf("want 1 shape-drift failure, got %v", shapeFails)
	}
}

// TestGeomeanSpeedup: the headline number is the geometric mean of
// baseline/run ratios over entries present in both with baseline timings —
// entries without a recorded ns/op or absent from the run don't dilute it.
func TestGeomeanSpeedup(t *testing.T) {
	res := parseSample(t)
	base := &Baseline{Benchmarks: map[string]BaselineEntry{
		// run: 1200000 ns/op → 2x faster than this baseline
		"BenchmarkMachineArithLoop": {NsPerOp: 2400000},
		// run: 460628 ns/op → 2x slower
		"BenchmarkCacheLookup": {NsPerOp: 230314},
		// shape-only baseline: no ns/op recorded, must not count
		"BenchmarkCacheStride/rowmajor": {Metrics: map[string]float64{"hit-%": 93.75}},
		// not in this run, must not count
		"BenchmarkNotRunThisTime": {NsPerOp: 1},
	}}
	sp, n := geomeanSpeedup(base, res)
	if n != 2 {
		t.Fatalf("folded %d entries, want 2", n)
	}
	// geomean(2, 0.5) = 1
	if diff := sp - 1; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("geomean = %v, want 1", sp)
	}
	if sp, n := geomeanSpeedup(&Baseline{}, res); sp != 1 || n != 0 {
		t.Errorf("empty baseline: got %v across %d, want 1 across 0", sp, n)
	}
}

func TestUpdateGatesOnlyMatchingBenchmarks(t *testing.T) {
	res := parseSample(t)
	base := &Baseline{}
	update(base, res, regexp.MustCompile(defaultGate))
	if got := base.Benchmarks["BenchmarkMachineArithLoop"].NsPerOp; got != 1200000 {
		t.Errorf("gated bench ns/op = %v, want 1200000", got)
	}
	if got := base.Benchmarks["BenchmarkCacheStride/rowmajor"].NsPerOp; got != 0 {
		t.Errorf("ungated bench recorded ns/op %v, want 0", got)
	}
	if got := base.Benchmarks["BenchmarkCacheStride/rowmajor"].Metrics["hit-%"]; got != 93.75 {
		t.Errorf("ungated bench shape metric = %v, want 93.75", got)
	}
	// threads-2 has no metrics and no gate: it must not be pinned at all.
	if _, ok := base.Benchmarks["BenchmarkLifeSpeedup/threads-2"]; ok {
		t.Error("metric-less ungated benchmark was pinned")
	}
}

// TestUpdateSkipsVolatileMetrics: wall-clock-derived measured-* series and
// nonzero memory meters must never enter the baseline (they wobble past the
// shape tolerance), while zero memory meters — the zero-alloc invariant —
// and ordinary deterministic metrics are pinned as usual.
func TestUpdateSkipsVolatileMetrics(t *testing.T) {
	const run = `BenchmarkParallelMergeSort/threads-8         	      14	   8149252 ns/op	     65536 elements	         0.9534 measured-speedup	 1052184 B/op	      77 allocs/op
BenchmarkMemoHit           	 3998719	        34.84 ns/op	       0 B/op	       0 allocs/op
`
	res, err := parseBench(strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	base := &Baseline{}
	update(base, res, regexp.MustCompile(defaultGate))

	ms := base.Benchmarks["BenchmarkParallelMergeSort/threads-8"]
	for _, unit := range []string{"measured-speedup", "B/op", "allocs/op"} {
		if _, ok := ms.Metrics[unit]; ok {
			t.Errorf("volatile metric %q was pinned into the baseline", unit)
		}
	}
	if ms.Metrics["elements"] != 65536 {
		t.Errorf("elements = %v, want 65536", ms.Metrics["elements"])
	}
	if ms.NsPerOp != 8149252 {
		t.Errorf("gated merge-sort ns/op = %v, want 8149252", ms.NsPerOp)
	}

	hit := base.Benchmarks["BenchmarkMemoHit"]
	if v, ok := hit.Metrics["allocs/op"]; !ok || v != 0 {
		t.Errorf("zero allocs/op invariant not pinned: %v (ok=%v)", v, ok)
	}
	if v, ok := hit.Metrics["B/op"]; !ok || v != 0 {
		t.Errorf("zero B/op invariant not pinned: %v (ok=%v)", v, ok)
	}
}

// TestGateMatchesBaseline holds the one gate list and the committed
// baseline to each other: every baseline entry with a recorded ns/op is
// gated, every gated benchmark has a recorded ns/op, and the gate regexp
// matches no other benchmark the baseline knows (such as
// BenchmarkLifeSpeedupModel/threads-1 beside the gated
// BenchmarkLifeSpeedup/threads-1).
func TestGateMatchesBaseline(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	gated := make(map[string]bool, len(gatedBenchmarks))
	for _, name := range gatedBenchmarks {
		gated[name] = true
		if base.Benchmarks[name].NsPerOp <= 0 {
			t.Errorf("gated %s has no ns_per_op in the baseline", name)
		}
	}
	gate := regexp.MustCompile(defaultGate)
	for name, entry := range base.Benchmarks {
		if entry.NsPerOp > 0 && !gated[name] {
			t.Errorf("baseline records ns_per_op for %s, which the gate does not list", name)
		}
		if gate.MatchString(name) != gated[name] {
			t.Errorf("gate regexp matches %s: %v, gate list: %v", name, gate.MatchString(name), gated[name])
		}
	}
}
