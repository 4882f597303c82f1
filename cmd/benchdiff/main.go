// Command benchdiff compares a `go test -bench` run against a committed
// baseline (BENCH_BASELINE.json) and fails on performance or shape
// regressions. It is the CI gate that locks in the simulator hot-path
// optimizations: ns/op may not regress past -max-regression on the gated
// kernel benchmarks, and the deterministic shape metrics the paper's claims
// rest on (speedup curves, hit rates, IPC) may not drift at all.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x -cpu 1 . | benchdiff -baseline BENCH_BASELINE.json -shapes-only
//	go test -run '^$' -bench 'Kernels' -benchtime 200ms -count 3 -cpu 1 . | benchdiff -baseline BENCH_BASELINE.json
//	go test -run '^$' -bench . -cpu 1 . | benchdiff -baseline BENCH_BASELINE.json -update
//
// With -advisory, ns/op regressions are printed as warnings but do not fail
// the run (shape drift still does) — use it where wall time is not
// comparable to the machine that recorded the baseline, such as shared CI
// runners. Enforce the ns/op gate on the baseline host by omitting the flag.
//
// Benchmarks must run with -cpu 1 so go test does not append the
// GOMAXPROCS suffix to names (sub-benchmarks like threads-16 make the
// suffix ambiguous to strip), keeping baseline keys portable across
// runners. With -count > 1, the best (minimum) ns/op per benchmark is used,
// damping scheduler noise. Shape metrics are deterministic, so they are
// compared with a tight tolerance regardless of -benchtime.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultGate matches the optimized kernel benchmarks whose ns/op the CI
// bench job gates: the original three simulator hot paths plus the whole
// asm request (assemble, 1 MiB machine set-up, run), the parallel
// runtime added by the synchronization/sweep pass (combining-tree barrier
// and the sweep engine itself), the compiled gate-level circuit engine
// (plan settle, gate-level datapath, 64-lane batch verify), the
// message-passing runtime (tree Allreduce, ring halo exchange), the three
// Life engines on their one bit-packed SWAR kernel (serial, 8 threads, 8
// ranks) plus the popcount Population path. The observability pass adds
// its own two: the zero-overhead disabled path (also pinned at 0 allocs/op
// via the allocs/op shape invariant) and the /metrics scrape (whose
// families count pins the exposition's shape).
const defaultGate = `^BenchmarkLifeSpeedup/threads-1$|^BenchmarkMachineArithLoop$|^BenchmarkAsmRequest$|^BenchmarkCacheLookup$` +
	`|^BenchmarkBarrierWait/tree-4$|^BenchmarkBarrierWait/tree-16$|^BenchmarkSweepGrid$` +
	`|^BenchmarkCircuitSettle/compiled$|^BenchmarkGateALU$|^BenchmarkALUVerifyBatch$` +
	`|^BenchmarkAllreduce$|^BenchmarkHaloExchange/packed-4096$` +
	`|^BenchmarkLifeEngines/serial$|^BenchmarkLifeEngines/parallel-8$|^BenchmarkLifeEngines/dist-8$` +
	`|^BenchmarkPopulation/packed$` +
	`|^BenchmarkMemoHit$|^BenchmarkLabdCacheHit$|^BenchmarkLabdCacheMiss$` +
	`|^BenchmarkParallelMergeSort/threads-1$|^BenchmarkParallelMergeSort/threads-8$` +
	`|^BenchmarkObsDisabled$|^BenchmarkMetricsScrape$`

// BaselineEntry is one benchmark's committed expectations.
type BaselineEntry struct {
	// NsPerOp is the baseline wall time; 0 means this benchmark's timing is
	// not gated (shape metrics still are).
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// Metrics holds the b.ReportMetric shape series by unit name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the committed BENCH_BASELINE.json shape.
type Baseline struct {
	Note       string                   `json:"note,omitempty"`
	Benchmarks map[string]BaselineEntry `json:"benchmarks"`
}

// RunResult is one benchmark's parsed output line (best-of if repeated).
type RunResult struct {
	NsPerOp float64
	Metrics map[string]float64
}

// parseBench parses `go test -bench` output into per-benchmark results,
// keeping the minimum ns/op (and its metrics) across repeated runs.
func parseBench(r io.Reader) (map[string]*RunResult, error) {
	results := make(map[string]*RunResult)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: some other Benchmark-prefixed line
		}
		name := fields[0]
		res := &RunResult{Metrics: make(map[string]float64)}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			if fields[i+1] == "ns/op" {
				res.NsPerOp = v
			} else {
				res.Metrics[fields[i+1]] = v
			}
		}
		if !ok {
			continue
		}
		if prev, seen := results[name]; !seen || res.NsPerOp < prev.NsPerOp {
			results[name] = res
		}
	}
	return results, sc.Err()
}

// compare checks a run against the baseline and returns human-readable
// failure lines, ns/op regressions separate from shape drift so callers can
// treat timing as advisory where wall time is unreliable.
func compare(base *Baseline, run map[string]*RunResult, maxRegression, tol float64, shapesOnly bool) (nsFailures, shapeFailures []string, nsGated, shapesChecked int) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		entry := base.Benchmarks[name]
		got, ok := run[name]
		if !ok {
			continue // this invocation ran a subset; other invocations cover it
		}
		if entry.NsPerOp > 0 && !shapesOnly && got.NsPerOp > 0 {
			nsGated++
			if got.NsPerOp > entry.NsPerOp*maxRegression {
				nsFailures = append(nsFailures, fmt.Sprintf(
					"%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%% (%.2fx)",
					name, got.NsPerOp, entry.NsPerOp, (maxRegression-1)*100, got.NsPerOp/entry.NsPerOp))
			}
		}
		metricNames := make([]string, 0, len(entry.Metrics))
		for unit := range entry.Metrics {
			metricNames = append(metricNames, unit)
		}
		sort.Strings(metricNames)
		for _, unit := range metricNames {
			want := entry.Metrics[unit]
			gotV, ok := got.Metrics[unit]
			if !ok {
				shapeFailures = append(shapeFailures, fmt.Sprintf("%s: shape metric %q missing from run", name, unit))
				continue
			}
			shapesChecked++
			if relDiff(gotV, want) > tol {
				shapeFailures = append(shapeFailures, fmt.Sprintf(
					"%s: shape metric %q drifted: got %g, baseline %g", name, unit, gotV, want))
			}
		}
	}
	return nsFailures, shapeFailures, nsGated, shapesChecked
}

// geomeanSpeedup summarizes a run's wall time against the baseline as one
// headline number: the geometric mean of baseline/run ns/op ratios over
// every benchmark present in both with a recorded baseline time. Values
// above 1 mean the run is faster than the baseline. Returns the count of
// entries folded in (0 means nothing comparable, geomean 1).
func geomeanSpeedup(base *Baseline, run map[string]*RunResult) (float64, int) {
	var logSum float64
	n := 0
	for name, entry := range base.Benchmarks {
		got, ok := run[name]
		if !ok || entry.NsPerOp <= 0 || got.NsPerOp <= 0 {
			continue
		}
		logSum += math.Log(entry.NsPerOp / got.NsPerOp)
		n++
	}
	if n == 0 {
		return 1, 0
	}
	return math.Exp(logSum / float64(n)), n
}

// relDiff is |a-b| scaled by the baseline magnitude (absolute near zero).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1 {
		return d / m
	}
	return d
}

// volatileMetric reports units that must not be recorded into the baseline
// because they are not deterministic at the 0.5% shape tolerance:
// measured-* series are wall-clock-derived (e.g. ParallelMergeSort's
// measured-speedup) and drift with host load, and Go's memory meters are
// pinned only when they are exactly zero — a zero-alloc hot path is an
// invariant worth gating, while nonzero counts wobble with goroutine stack
// growth. Deterministic allocation pins use explicit units instead
// (allocs-per-hit).
func volatileMetric(unit string, v float64) bool {
	if strings.HasPrefix(unit, "measured-") {
		return true
	}
	return (unit == "B/op" || unit == "allocs/op") && v != 0
}

// update merges a run into the baseline: every benchmark's deterministic
// shape metrics are recorded (volatile units are dropped), and ns/op is
// recorded for benchmarks matching the gate regex.
func update(base *Baseline, run map[string]*RunResult, gate *regexp.Regexp) {
	if base.Benchmarks == nil {
		base.Benchmarks = make(map[string]BaselineEntry)
	}
	for name, res := range run {
		entry := base.Benchmarks[name]
		metrics := make(map[string]float64, len(res.Metrics))
		for unit, v := range res.Metrics {
			if !volatileMetric(unit, v) {
				metrics[unit] = v
			}
		}
		if len(metrics) > 0 {
			entry.Metrics = metrics
		}
		if gate.MatchString(name) && res.NsPerOp > 0 {
			entry.NsPerOp = res.NsPerOp
		}
		if entry.NsPerOp == 0 && len(entry.Metrics) == 0 {
			continue // nothing worth pinning for this benchmark
		}
		base.Benchmarks[name] = entry
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline JSON file")
	input := flag.String("input", "-", "bench output to read ('-' = stdin)")
	maxRegression := flag.Float64("max-regression", 1.25, "fail when ns/op exceeds baseline by this factor")
	tol := flag.Float64("tol", 0.005, "relative tolerance for shape metrics")
	shapesOnly := flag.Bool("shapes-only", false, "skip ns/op gating (for -benchtime=1x shape runs)")
	advisory := flag.Bool("advisory", false, "report ns/op regressions as warnings without failing (shape drift still fails); for runners with unstable per-core speed")
	doUpdate := flag.Bool("update", false, "record this run into the baseline instead of comparing")
	gateExpr := flag.String("gate", defaultGate, "regexp of benchmarks whose ns/op is gated (with -update)")
	flag.Parse()

	in := os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	results, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}

	var base Baseline
	if data, err := os.ReadFile(*baselinePath); err == nil {
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("parse %s: %w", *baselinePath, err)
		}
	} else if !*doUpdate {
		return fmt.Errorf("read baseline: %w", err)
	}

	if *doUpdate {
		gate, err := regexp.Compile(*gateExpr)
		if err != nil {
			return fmt.Errorf("bad -gate regexp: %w", err)
		}
		if base.Note == "" {
			base.Note = "Benchmark baseline for the CI bench gate. Regenerate with: " +
				"go test -run '^$' -bench . -benchtime=1x -cpu 1 . | go run ./cmd/benchdiff -update; " +
				"then go test -run '^$' -bench 'LifeSpeedup/threads-1$|MachineArithLoop|AsmRequest|CacheLookup|BarrierWait/tree|SweepGrid|CircuitSettle|GateALU$|ALUVerifyBatch|Allreduce|HaloExchange|LifeEngines|Population|MemoHit|LabdCache|ParallelMergeSort|ObsDisabled|MetricsScrape' -benchtime 200ms -count 3 -cpu 1 . | go run ./cmd/benchdiff -update"
		}
		update(&base, results, gate)
		data, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchdiff: recorded %d benchmarks into %s\n", len(results), *baselinePath)
		return nil
	}

	// The headline number EXPERIMENTS.md trajectory tables quote: one
	// geomean over every ns/op entry this invocation compared.
	if sp, n := geomeanSpeedup(&base, results); n > 0 && !*shapesOnly {
		fmt.Printf("benchdiff: geomean speedup vs baseline: %.2fx across %d ns/op entries\n", sp, n)
	}

	nsFailures, shapeFailures, nsGated, shapes := compare(&base, results, *maxRegression, *tol, *shapesOnly)
	failures := append(append([]string(nil), nsFailures...), shapeFailures...)
	if *advisory {
		// Wall time on shared CI runners varies with the host; surface
		// timing regressions loudly but let only shape drift fail the run.
		for _, f := range nsFailures {
			fmt.Fprintln(os.Stderr, "benchdiff: WARN (advisory):", f)
		}
		failures = shapeFailures
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchdiff: FAIL:", f)
		}
		return fmt.Errorf("%d regression(s) against %s", len(failures), *baselinePath)
	}
	fmt.Printf("benchdiff: OK — %d ns/op gate(s), %d shape metric(s) within tolerance of %s\n",
		nsGated, shapes, *baselinePath)
	return nil
}
