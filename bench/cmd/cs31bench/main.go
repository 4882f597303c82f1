// Command cs31bench is the repository's end-to-end benchmark. It measures
// labd serving a synthetic mix of requests and the three Game of Life
// engines, from outside and through public entry points only: labd is the
// cmd/labd binary driven over loopback HTTP, and Life runs through the
// life package's grids and runners. Measured work alternates with a
// reference the repository's code takes no part in (reference.go), and
// the end-to-end metrics are relative to it. Every output is checked, and
// every metric is printed by name with its unit.
//
// Usage:
//
//	cs31bench -labd PATH -workload NAME -seed N [-seconds S] [-trace 0|1] [-out FILE]
//	cs31bench -labd PATH -seed N           (every workload, one process each)
//	cs31bench compare A.jsonl B.jsonl      (verdicts per workload and metric, bounds from ./BENCHMARK.json)
//	cs31bench reference ADDR               (the reference server the classroom workloads spawn)
//
// bench/run.sh builds labd and this command from the checkout and passes
// -labd. With -trace 0 a run prints the end-to-end metrics; with -trace 1
// it also makes a traced pass and prints the per-layer metrics instead.
// The last line of standard output is the run's result as one JSON
// object. A run with a failed operation or a broken invariant prints it
// with "correct": false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(w *workload, cfg runConfig, t *tally) (map[string]float64, error)

	// classroom workloads
	fresh      bool
	rate       float64 // paced-phase requests per second
	warmup     int     // fresh: warm-up requests per set-up
	tracedReqs int     // requests of the traced pass

	// life workloads
	rows, cols, gens int
	warmRuns         int // per engine and set-up
	tracedRuns       int // per engine, in the traced pass
}

// The paced rates hold labd near a fifth of what it serves on a 2-CPU
// host (about 15k hits or 2.2k misses per second to 2 clients), where
// latency tracks service time rather than queueing. At twice these rates
// a slow spell of the host tipped fresh requests into queueing, and the
// ten-seed spread of classroom-fresh paced latency p50 grew from 7% to
// 47%; at half the fresh rate it was 9%, no better, because there a
// request mostly waits for an idle CPU to wake. The end-to-end latency
// therefore comes from the saturated phase (classroom.go).
var workloads = []*workload{
	{name: "classroom-repeat", run: runClassroom, rate: 2500, tracedReqs: 6000,
		why: "synthetic mix over every labd endpoint, Zipf repeats of primed keys: all memo hits, so memo reads and the HTTP/JSON front carry the load while scheduler and simulators idle"},
	{name: "classroom-fresh", run: runClassroom, fresh: true, rate: 500, warmup: 500, tracedReqs: 6000,
		why: "the same synthetic mix and work per request, but every key new: every request misses, so the scheduler and every simulator do the work"},
	{name: "life-large", run: runLife, rows: 2048, cols: 2048, gens: 8, warmRuns: 1, tracedRuns: 2,
		why: "2048x2048 boards above the per-core L2 with one barrier or halo per tens of ms: the Life kernel dominates"},
	{name: "life-small", run: runLife, rows: 128, cols: 128, gens: 8, warmRuns: 20, tracedRuns: 100,
		why: "128x128 boards: thread spawn, barriers and msgpass set-up dominate, the shape of labd's small life requests"},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names a metric and its unit. BENCHMARK.json declares the
// same lists with each metric's direction and, end to end, its bound.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees, measured with tracing off. An
// operation is one HTTP request on the classroom workloads and one
// rotation of the engines on the life workloads. Latency and throughput
// are relative to the reference (reference.go); their absolute values,
// the bases of the ratios and the paced phase's latencies are per-layer
// metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_rel", "ratio"},
	{"throughput_rel", "ratio"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the per-layer metrics a -trace 1 run prints. A metric of
// a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"labd.hit_p50_ms", "ms"},
	{"labd.client_mean_ms", "ms"},
	{"labd.server_mean_ms", "ms"},
	{"labd.client_overhead_mean_ms", "ms"},
	{"labd.route.asm.p50_ms", "ms"},
	{"labd.route.minic.p50_ms", "ms"},
	{"labd.route.cache.p50_ms", "ms"},
	{"labd.route.vm.p50_ms", "ms"},
	{"labd.route.life.p50_ms", "ms"},
	{"labd.route.homework.p50_ms", "ms"},
	{"labd.route.survey.p50_ms", "ms"},
	{"labd.marshal_mean_us", "us"},
	{"labd.front_self_mean_us", "us"},
	{"labd.glue_share", "ratio"},
	{"sched.queue_wait_mean_us", "us"},
	{"sched.handler_mean_ms", "ms"},
	{"sched.busy_share", "ratio"},
	{"sched.submitted", "count"},
	{"sched.rejected", "count"},
	{"sched.skipped", "count"},
	{"sched.queue_hwm", "count"},
	{"memo.lookups", "count"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"memo.coalesced", "count"},
	{"memo.bypass", "count"},
	{"memo.evictions", "count"},
	{"memo.bytes", "B"},
	{"memo.hit_ratio", "ratio"},
	{"memo.hit_mean_us", "us"},
	{"memo.miss_mean_ms", "ms"},
	{"asm.run_mean_us", "us"},
	{"asm.steps_per_s", "1/s"},
	{"minic.compile_mean_us", "us"},
	{"cache.sim_mean_us", "us"},
	{"vm.sim_mean_us", "us"},
	{"homework.generate_mean_us", "us"},
	{"survey.figure_mean_us", "us"},
	{"life.request_mean_us", "us"},
	{"life.serial.run_median_us", "us"},
	{"life.parallel.run_median_us", "us"},
	{"life.dist.run_median_us", "us"},
	{"life.serial.cells_per_s", "cells/s"},
	{"life.parallel.cells_per_s", "cells/s"},
	{"life.dist.cells_per_s", "cells/s"},
	{"life.parallel_speedup", "ratio"},
	{"life.dist_speedup", "ratio"},
	{"life.gen_self_mean_us", "us"},
	{"life.spawn_overhead_us", "us"},
	{"life.live_updates", "count"},
	{"pthread.barrier_wait_mean_us", "us"},
	{"pthread.barrier_wait_share", "ratio"},
	{"msgpass.halo_mean_us", "us"},
	{"msgpass.halo_share", "ratio"},
	{"msgpass.msgs_per_run", "count"},
	{"msgpass.bytes_per_run", "B"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"ref.latency_p50_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"ref.throughput_ops_s", "ops/s"},
	{"paced.latency_p50_ms", "ms"},
	{"paced.latency_p95_ms", "ms"},
	{"paced.latency_p99_ms", "ms"},
	{"paced.latency_p99_beyond", "count"},
	{"paced.latency_p999_ms", "ms"},
	{"paced.latency_p999_beyond", "count"},
	{"paced.ref.latency_p50_ms", "ms"},
	{"paced.latency_p50_rel", "ratio"},
	{"gen.sent", "count"},
	{"gen.failed", "count"},
	{"gen.lateness_p50_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.dropped_events", "count"},
	{"self.total_ms", "ms"},
	{"self.bench_ms", "ms"},
	{"self.labd_front_ms", "ms"},
	{"self.sched_queue_ms", "ms"},
	{"self.handler_ms", "ms"},
	{"self.marshal_ms", "ms"},
	{"self.life_kernel_ms", "ms"},
	{"self.barrier_ms", "ms"},
	{"self.halo_ms", "ms"},
	{"self.residual_ms", "ms"},
}

// runConfig is everything one run needs besides its workload.
type runConfig struct {
	seed     int64
	window   time.Duration // measured time
	traced   bool
	workdir  string  // trace files go under workdir/trace; "" writes none
	start    starter // launches labd for the classroom workloads
	startRef starter // launches their reference server
	// setups is how many times a run sets up; the median is setup_s and
	// the last set-up is measured.
	setups int
	// replayPerTemplate is how many inputs per template the traced
	// classroom-fresh run replays through labd and the simulators.
	replayPerTemplate int
}

// tally counts operations and records why a run is not correct.
type tally struct {
	attempted, failed atomic.Int64
	log               io.Writer

	mu      sync.Mutex
	logged  int
	invalid []string
}

// op counts one checked operation and reports whether it succeeded.
func (t *tally) op(what string, err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.logged < 20 {
		t.logged++
		fmt.Fprintf(t.log, "cs31bench: %s: %v\n", what, err)
	}
	return false
}

// invalidate marks the run incorrect for a reason no single operation
// carries, such as a pacing or memo-hit invariant.
func (t *tally) invalidate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.invalid = append(t.invalid, msg)
	fmt.Fprintf(t.log, "cs31bench: invalid run: %s\n", msg)
}

func (t *tally) correct() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed.Load() == 0 && len(t.invalid) == 0
}

// metricValue and result are the JSON shape of a run's last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func newResult(vals map[string]float64, t *tally, defs []metricDef) result {
	r := result{Correct: t.correct(), Attempted: t.attempted.Load(), Failed: t.failed.Load(),
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := vals[d.name]
		switch {
		case math.IsInf(v, 1):
			v = math.MaxFloat64 // JSON has no infinity; failed requests put it here
		case math.IsNaN(v):
			v = 0
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r
}

// workdir holds trace files, under workdir/trace; bench/run.sh keeps its
// build outputs there too.
const workdir = ".bench_build"

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cs31bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from (1 for development; hold out others)")
	seconds := fs.Int("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: add a traced pass and print per-layer metrics; 0: print end-to-end metrics")
	out := fs.String("out", "", "append the run's result as a JSON line to this file")
	labdBin := fs.String("labd", "", "labd binary the classroom workloads spawn")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.Arg(0) == "compare":
		return compare(fs.Args()[1:], "BENCHMARK.json", stdout, stderr)
	case fs.Arg(0) == "reference" && fs.NArg() == 2:
		return serveReference(fs.Arg(1), stderr)
	}
	if fs.NArg() != 0 || *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "usage: cs31bench -labd PATH [-workload NAME] -seed N [-seconds S] [-trace 0|1] [-out FILE]")
		return 2
	}
	if *name == "" {
		return runEach(args, stdout, stderr)
	}
	w := workloadNamed(*name)
	if w == nil {
		fmt.Fprintf(stderr, "cs31bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{
		seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		workdir: workdir, start: spawnLabd(*labdBin, workdir), startRef: spawnReference(),
		setups: 3, replayPerTemplate: 40,
	}

	// Stop labd children on a signal or if the run overruns its budget.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		killChildren()
		os.Exit(130)
	}()
	limit := cfg.window + 150*time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "cs31bench: run exceeded %v; stopping\n", limit)
		killChildren()
		os.Exit(3)
	})
	defer watchdog.Stop()

	t := &tally{log: stderr}
	vals, err := w.run(w, cfg, t)
	if err != nil {
		killChildren()
		fmt.Fprintf(stderr, "cs31bench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := newResult(vals, t, defs)
	if err := report(stdout, w.name, cfg.seed, res, defs); err != nil {
		fmt.Fprintf(stderr, "cs31bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: cfg.seed, Trace: *trace, result: res}); err != nil {
			fmt.Fprintf(stderr, "cs31bench: %v\n", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints every metric by name with its unit, then the result as
// the last line.
func report(w io.Writer, name string, seed int64, res result, defs []metricDef) error {
	verdict := "correct"
	if !res.Correct {
		verdict = "NOT correct"
	}
	fmt.Fprintf(w, "cs31bench %s seed %d: %d operations, %d failed, %s\n", name, seed, res.Attempted, res.Failed, verdict)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runEach runs every workload in a process of its own, so each starts
// from a clean heap and its peak RSS is its own.
func runEach(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "cs31bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintf(stderr, "cs31bench: %s: %v\n", w.name, err)
			}
			code = 1
		}
	}
	return code
}
