// Command life runs Conway's Game of Life serially (Lab 6) or in parallel
// (Lab 10) with ParaVis-style visualization, and can produce the lab's
// speedup table across thread counts.
//
// Usage:
//
//	life -rows 64 -cols 64 -iters 100 -engine parallel -threads 4 -visual
//	life -file oscillator.txt -threads 2
//	life -rows 512 -cols 512 -iters 50 -bench 16      # speedup table
//
// The engine is one flag: -engine {serial,parallel,dist}. When omitted it
// is inferred from -threads (1 = serial, more = parallel). Every run goes
// through life.Advance, so -threads 1 runs the serial engine whatever
// -engine says, and every engine advances the same bit-packed board (64
// cells per word) through the same SWAR kernel. Under -partition cols a
// thread owns a block of 64-column words, so a board narrower than
// 64*threads columns runs fewer threads; the banner reports the count a
// run used. -visual renders each generation on the serial and parallel
// engines; -iters must be at least 0, and at least 1 with -bench.
//
// The message-passing engine (-engine dist) exposes the fault-injection
// knobs of the msgpass runtime: -chaos-seed/-chaos-delay/-chaos-stall
// perturb message timing deterministically (a straggler demo in one flag),
// and -watchdog turns a protocol hang into a structured deadlock report.
// Both need 2 or more ranks.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cs31/internal/life"
	"cs31/internal/msgpass"
	"cs31/internal/obs"
	"cs31/internal/paravis"
	"cs31/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "life:", err)
		os.Exit(1)
	}
}

// resolveEngine maps the -engine flag to one of "serial", "parallel", or
// "dist". An empty -engine infers the engine from the thread count.
func resolveEngine(engine string, threads int) (string, error) {
	switch engine {
	case "":
		if threads > 1 {
			return "parallel", nil
		}
		return "serial", nil
	case "serial", "parallel", "dist":
		return engine, nil
	default:
		return "", fmt.Errorf("unknown engine %q (want serial, parallel, or dist)", engine)
	}
}

// checkDensity rejects a -density outside [0, 1], NaN included, with
// labd's message for the same mistake.
func checkDensity(d float64) error {
	if !(d >= 0 && d <= 1) {
		return fmt.Errorf("density %v outside [0,1]", d)
	}
	return nil
}

// checkIters rejects a negative -iters, and a -bench table over zero
// generations: every row would divide its time by zero.
func checkIters(iters, bench int) error {
	if iters < 0 {
		return fmt.Errorf("-iters %d below 0", iters)
	}
	if bench > 0 && iters == 0 {
		return fmt.Errorf("-bench needs -iters of at least 1")
	}
	return nil
}

func run() error {
	file := flag.String("file", "", "lab-format config file (rows cols iters, then live-cell pairs)")
	rows := flag.Int("rows", 32, "grid rows (random mode)")
	cols := flag.Int("cols", 32, "grid columns (random mode)")
	iters := flag.Int("iters", 20, "generations to run")
	seed := flag.Int64("seed", 31, "random seed")
	density := flag.Float64("density", 0.3, "initial live density (random mode)")
	threads := flag.Int("threads", 1, "worker threads (ranks for the dist engine)")
	partition := flag.String("partition", "rows", "parallel partition: rows or cols")
	engine := flag.String("engine", "", "engine: serial, parallel, or dist (default: inferred from -threads)")
	visual := flag.Bool("visual", false, "render each generation (ParaVis)")
	color := flag.Bool("color", true, "color thread regions in visual mode")
	bench := flag.Int("bench", 0, "measure speedup for 1..N threads and exit")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-injection seed (dist engine; 0 = chaos off)")
	chaosDelay := flag.Duration("chaos-delay", 0, "max injected delivery delay per message (dist engine)")
	chaosStall := flag.Duration("chaos-stall", 0, "max injected stall per receive (dist engine)")
	chaosRank := flag.Int("chaos-rank", -1, "restrict injection to one rank (-1 = all ranks)")
	watchdog := flag.Duration("watchdog", 0, "deadlock watchdog timeout (dist engine; 0 = off)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event timeline (chrome://tracing, Perfetto) to this file")
	flag.Parse()

	eng, err := resolveEngine(*engine, *threads)
	if err != nil {
		return err
	}
	if err := checkDensity(*density); err != nil {
		return err
	}

	var g *life.Grid
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg, err := life.ParseConfig(f)
		if err != nil {
			return err
		}
		if cfg.Iters > 0 {
			*iters = cfg.Iters
		}
		g, err = cfg.BuildGrid(life.Torus)
		if err != nil {
			return err
		}
	} else {
		g, err = life.NewGrid(*rows, *cols, life.Torus)
		if err != nil {
			return err
		}
		g.Randomize(*seed, *density)
	}

	if err := checkIters(*iters, *bench); err != nil {
		return err
	}
	part := life.ByRows
	if *partition == "cols" {
		part = life.ByCols
	} else if *partition != "rows" {
		return fmt.Errorf("unknown partition %q", *partition)
	}
	// life.Advance refuses what the chosen engine cannot honour: dist by
	// columns or with -visual, and chaos or a watchdog anywhere but a dist
	// run of 2 or more ranks.
	e := life.Engine{Workers: *threads, Partition: part, Dist: eng == "dist", Watchdog: *watchdog}
	if eng == "serial" {
		e.Workers = 1
	}
	if *chaosDelay > 0 || *chaosStall > 0 {
		e.Chaos = &msgpass.Chaos{Seed: *chaosSeed, MaxDelay: *chaosDelay, MaxStall: *chaosStall}
		if *chaosDelay > 0 {
			e.Chaos.DelayProb = 1
		}
		if *chaosStall > 0 {
			e.Chaos.StallProb = 1
		}
		if *chaosRank >= 0 {
			e.Chaos.Ranks = []int{*chaosRank}
		}
	}

	if *bench > 0 {
		if *traceOut != "" {
			return fmt.Errorf("-trace does not compose with -bench (trace one run instead)")
		}
		return runBench(g, *iters, *bench, e)
	}
	if *traceOut != "" {
		e.Trace = obs.New()
	}
	if *visual {
		vis := paravis.New(*color)
		owner := e.Owner(g) // nil on the serial engine: no regions to colour
		e.OnRound = func(g *life.Grid) {
			fmt.Printf("generation %d (population %d)\n%s\n", g.Generation, g.Population(),
				vis.Render(g.Bools(), owner))
		}
	}

	start := time.Now()
	stats, err := life.Advance(context.Background(), g, e, *iters)
	elapsed := time.Since(start)
	distRun := e.Dist && e.Workers > 1
	// A run Advance refused started no world, so it has no fault report.
	if distRun && (e.Chaos != nil || e.Watchdog > 0) && !errors.Is(err, errors.ErrUnsupported) {
		fmt.Printf("fault injection: seed %d, delay<=%v, stall<=%v, watchdog %v (elapsed %v)\n",
			*chaosSeed, *chaosDelay, *chaosStall, *watchdog, elapsed.Round(time.Millisecond))
	}
	if err != nil {
		return err
	}
	switch {
	case distRun:
		fmt.Printf("ran %d rounds on %d ranks (message passing), %d cell updates\n",
			stats.Rounds, stats.Workers, stats.LiveUpdates)
		fmt.Printf("comm: %d messages, %d bytes sent, %d collective calls\n",
			stats.Comm.Sends, stats.Comm.BytesSent, stats.Comm.Collectives)
	case e.Workers > 1:
		fmt.Printf("ran %d rounds on %d threads (%v partition), %d cell updates\n",
			stats.Rounds, stats.Workers, part, stats.LiveUpdates)
	}
	if !*visual {
		fmt.Printf("final population %d after %d generations\n%s",
			g.Population(), g.Generation, g.String())
	}
	return writeTrace(e.Trace, *traceOut)
}

// writeTrace exports the recorded timeline as Chrome trace-event JSON,
// structurally validating it on the way out (the same checks the test
// suite runs), and reports the lane/event totals.
func writeTrace(tr *obs.Trace, path string) error {
	if tr == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return fmt.Errorf("export trace: %w", err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return fmt.Errorf("exported trace failed validation: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: wrote %s (%d events on %d lanes, %d dropped)\n",
		path, sum.Events, len(sum.Lanes), tr.Drops())
	return nil
}

// runBench measures the speedup table: e's engine at 1 worker (the serial
// engine) and at powers of two up to maxThreads. Metric names match the
// bench harness in bench_test.go (ns/op, speedup, efficiency-%), and the
// whole table is assembled before printing so measurement output never
// interleaves with anything the workers write.
func runBench(template *life.Grid, iters, maxThreads int, e life.Engine) error {
	counts := []int{1}
	for t := 2; t <= maxThreads; t *= 2 {
		counts = append(counts, t)
	}
	points, err := sweep.MeasureScaling(context.Background(), counts, func(ctx context.Context, threads int) error {
		point := e
		point.Workers = threads
		_, err := life.Advance(ctx, template.Clone(), point, iters)
		return err
	})
	if err != nil {
		return err
	}
	engine := "shared memory"
	if e.Dist {
		engine = "message passing"
	}
	var out strings.Builder
	fmt.Fprintf(&out, "Game of Life speedup: %dx%d grid, %d iterations, %v partition, %s\n",
		template.Rows, template.Cols, iters, e.Partition, engine)
	fmt.Fprintf(&out, "%8s %14s %9s %13s\n", "threads", "ns/op", "speedup", "efficiency-%")
	for _, p := range points {
		// One op is one full-grid generation, matching BenchmarkLifeSpeedup.
		nsPerOp := float64(p.Elapsed.Nanoseconds()) / float64(iters)
		fmt.Fprintf(&out, "%8d %14.0f %9.2f %13.1f\n",
			p.Threads, nsPerOp, p.Speedup, 100*p.Efficiency)
	}
	fmt.Print(out.String())
	return nil
}
