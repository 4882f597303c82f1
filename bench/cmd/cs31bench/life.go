package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"cs31/internal/life"
	"cs31/internal/msgpass"
	"cs31/internal/obs"
)

// The life workloads run the three Game of Life engines in rotation on
// fresh clones of one seeded torus board: serial Grid.Run, the
// pthread-style ParallelRunner and the message-passing DistRunner, with
// lifeWorkers threads or ranks. Every run's final board must equal the
// serial engine's, and parallel and dist must agree on live updates.

const (
	lifeWorkers = 2
	lifeDensity = 0.3
)

var engines = []string{"serial", "parallel", "dist"}

// lifeRun is one engine run's observable outcome.
type lifeRun struct {
	wall time.Duration
	live int64 // parallel and dist only
	comm msgpass.WorldStats
}

// runEngine advances a clone of tmpl by gens generations on one engine.
// tr and waits, when not nil, receive the parallel and dist engines'
// spans and the parallel engine's barrier waits.
func runEngine(ctx context.Context, tmpl *life.Grid, engine string, gens int, tr *obs.Trace, waits *obs.Histogram) (*life.Grid, lifeRun, error) {
	g := tmpl.Clone()
	var r lifeRun
	t0 := time.Now()
	var err error
	switch engine {
	case "serial":
		g.Run(gens)
	case "parallel":
		var st *life.RunStats
		st, err = (&life.ParallelRunner{G: g, Threads: lifeWorkers, Trace: tr, BarrierWaits: waits}).RunCtx(ctx, gens)
		if err == nil {
			r.live = st.LiveUpdates
		}
	case "dist":
		dr := &life.DistRunner{G: g, Ranks: lifeWorkers, Trace: tr}
		var st *life.RunStats
		st, err = dr.RunCtx(ctx, gens)
		if err == nil {
			r.live = st.LiveUpdates
		}
		r.comm = dr.CommStats
	}
	r.wall = time.Since(t0)
	return g, r, err
}

// lifeBench is one run of a life workload.
type lifeBench struct {
	w    *workload
	cfg  runConfig
	t    *tally
	tmpl *life.Grid
	ref  *life.Grid // serial final board of the first set-up
	live int64      // parallel live updates of the first set-up

	sten     *stencil // the reference (reference.go) on the template board
	stenLast []byte   // a copy of the stencil's final board, once checked against ref
}

// check holds a run to the reference board and live-update count.
func (b *lifeBench) check(engine string, g *life.Grid, r lifeRun) error {
	if g.Generation != b.w.gens || !g.Equal(b.ref) || g.Population() != b.ref.Population() {
		return fmt.Errorf("%s: final board differs from the serial engine's", engine)
	}
	if engine != "serial" && r.live != b.live {
		return fmt.Errorf("%s: %d live updates, parallel counted %d", engine, r.live, b.live)
	}
	return nil
}

// run runs one engine on a clone of the template and checks it.
func (b *lifeBench) run(engine string, tr *obs.Trace, waits *obs.Histogram) (lifeRun, bool) {
	g, r, err := runEngine(context.Background(), b.tmpl, engine, b.w.gens, tr, waits)
	if err == nil {
		if b.ref == nil && engine == "serial" {
			b.ref = g
		}
		if b.live == 0 && engine == "parallel" {
			b.live = r.live
		}
		err = b.check(engine, g, r)
	}
	return r, b.t.op("life "+engine, err)
}

// refEngines are the reference's runs in one rotation, by worker count:
// the thread counts of the serial, parallel and dist engines.
var refEngines = []int{1, lifeWorkers, lifeWorkers}

// runRef runs the stencil on the given number of workers and checks its
// final board: the first against the serial engine's, every later one
// against the first. It returns the run's wall time in ms.
func (b *lifeBench) runRef(workers int) (float64, bool) {
	t0 := time.Now()
	board := b.sten.run(b.w.gens, workers)
	ms := float64(time.Since(t0)) / 1e6
	var err error
	switch {
	case b.stenLast == nil && !b.sten.equalGrid(board, b.ref):
		err = errors.New("final board differs from the serial engine's")
	case b.stenLast == nil:
		b.stenLast = append([]byte(nil), board...)
	case !bytes.Equal(board, b.stenLast):
		err = errors.New("final board differs from its first run's")
	}
	return ms, b.t.op(fmt.Sprintf("life reference on %d workers", workers), err)
}

func runLife(w *workload, cfg runConfig, t *tally) (map[string]float64, error) {
	b := &lifeBench{w: w, cfg: cfg, t: t}
	vals := map[string]float64{}

	var setups []float64
	for rep := 0; rep < cfg.setups; rep++ {
		t0 := time.Now()
		g, err := life.NewGrid(w.rows, w.cols, life.Torus)
		if err != nil {
			return nil, err
		}
		g.Randomize(cfg.seed, lifeDensity)
		b.tmpl = g
		for _, e := range engines {
			for i := 0; i < w.warmRuns; i++ {
				b.run(e, nil, nil)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	vals["setup_s"] = median(setups)

	// The reference's board and warm-up are the benchmark's own set-up,
	// not the engines', so they stay out of setup_s.
	b.sten = newStencil(b.tmpl)
	for _, n := range refEngines {
		for i := 0; i < w.warmRuns; i++ {
			b.runRef(n)
		}
	}

	// One operation is a rotation: each engine advances its own clone of
	// the board, as Lab 10's speedup report runs serial and parallel
	// versions of one input. Each rotation is followed by a rotation of
	// the reference.
	walls := map[string][]float64{}
	refWalls := make([][]float64, len(refEngines))
	var rotations, refRotations, slower, faster []float64 // faster: reference time over the engines'; slower: its inverse
	var comm msgpass.WorldStats
	failed := 0
	for end := time.Now().Add(cfg.window); time.Now().Before(end); {
		var rot, refRot float64
		for _, e := range engines {
			r, ok := b.run(e, nil, nil)
			if !ok {
				failed++
				rot = math.Inf(1) // a failed run misses any latency limit
				continue
			}
			ms := float64(r.wall) / 1e6
			walls[e] = append(walls[e], ms)
			rot += ms
			if e == "dist" {
				comm = r.comm
			}
		}
		for i, n := range refEngines {
			ms, ok := b.runRef(n)
			if !ok {
				failed++
			}
			refWalls[i] = append(refWalls[i], ms)
			refRot += ms
		}
		rotations = append(rotations, rot)
		refRotations = append(refRotations, refRot)
		slower = append(slower, rot/refRot)
		faster = append(faster, refRot/rot)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	vals["rss_peak_mb"] = rss

	// The end-to-end metrics pair each rotation with the reference rotation
	// after it; an operation is a whole rotation, so its latency and
	// throughput relative to the reference are reciprocal. The absolute
	// per-layer throughputs come from each engine's and each reference
	// run's fastest run: the engines are deterministic, so what varies
	// between runs of one engine is the host, which runs slow for seconds
	// to minutes at a time, and the fastest runs are those it left alone.
	cells := float64(w.rows * w.cols * w.gens)
	var medianRotation, bestRotation, bestRefRotation float64 // ms
	for _, e := range engines {
		med, best := median(walls[e]), quantile(sortedCopy(walls[e]), 0)
		medianRotation += med
		bestRotation += best
		vals["life."+e+".run_median_us"] = 1e3 * med
		vals["life."+e+".cells_per_s"] = ratio(cells, best/1e3)
	}
	for i := range refEngines {
		bestRefRotation += quantile(sortedCopy(refWalls[i]), 0)
	}
	rot := sortedCopy(rotations)
	vals["latency_p50_ms"] = quantile(rot, 0.5)
	vals["latency_p95_ms"] = quantile(rot, 0.95)
	vals["ref.latency_p50_ms"] = median(refRotations)
	vals["latency_p50_rel"] = median(slower)
	n := float64(len(engines)) * cells
	vals["throughput_ops_s"] = ratio(n, bestRotation/1e3)
	vals["ref.throughput_ops_s"] = ratio(n, bestRefRotation/1e3)
	vals["throughput_rel"] = median(faster)
	vals["life.parallel_speedup"] = ratio(vals["life.serial.run_median_us"], vals["life.parallel.run_median_us"])
	vals["life.dist_speedup"] = ratio(vals["life.serial.run_median_us"], vals["life.dist.run_median_us"])
	vals["life.live_updates"] = float64(b.live)
	vals["msgpass.msgs_per_run"] = float64(comm.Sends)
	vals["msgpass.bytes_per_run"] = float64(comm.BytesSent)
	vals["gen.sent"] = float64((len(engines) + len(refEngines)) * len(rotations))
	vals["gen.failed"] = float64(failed)

	if cfg.traced {
		if err := b.tracedPass(vals, medianRotation); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// tracedPass runs tracedRuns more rotations with the engines' own
// tracing on and the benchmark's "run" span around each run, and splits
// their time into kernel, barrier and halo self time. Per-lane sums are
// averaged over the lanes, which run side by side, so the split adds up
// to wall time; the residual is thread spawn and join, board
// distribution and gather, and the closing allreduce.
func (b *lifeBench) tracedPass(vals map[string]float64, untracedRotationMs float64) error {
	bench := obs.New(obs.WithLaneCapacity(4 * len(engines) * b.w.tracedRuns))
	lane := bench.Lane("life")
	nRun := bench.Name("run")
	var self selfTimes
	var genSelf, genCount, spawn, spawnRuns, halo, haloCount float64
	var barrierShare, haloShare float64
	var dropped uint64
	waits := obs.NewHistogram(lifeWorkers)
	tracedWalls := map[string][]float64{}
	for i := 0; i < b.w.tracedRuns; i++ {
		for _, e := range engines {
			var tr *obs.Trace
			if e != "serial" {
				// Per lane and generation: generation and barrier-wait
				// B/E pairs (parallel) or generation and halo-exchange
				// pairs plus two sends and two receives (dist); the rest
				// covers distribution, the closing allreduce and the
				// gather.
				tr = obs.New(obs.WithLaneCapacity(16*b.w.gens + 64))
			}
			t0 := time.Now()
			r, ok := b.run(e, tr, waits)
			lane.Complete(nRun, t0)
			if !ok {
				continue
			}
			wallUs := float64(r.wall) / 1e3
			tracedWalls[e] = append(tracedWalls[e], wallUs)
			self.total += wallUs
			if e == "serial" {
				self.kernel += wallUs
				continue
			}
			dropped += tr.Drops()
			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				return fmt.Errorf("export %s trace: %w", e, err)
			}
			ct, _, err := parseTrace(buf.Bytes())
			if err != nil {
				return fmt.Errorf("%s trace: %w", e, err)
			}
			var busiest, gen, gHalo, bar float64
			var lanes float64
			for _, lt := range totalsByLane(ct) {
				lanes++
				gen += lt.total["generation"]
				genCount += float64(lt.count["generation"])
				gHalo += lt.total["halo-exchange"]
				haloCount += float64(lt.count["halo-exchange"])
				bar += lt.total["barrier-wait"]
				if lt.busy > busiest {
					busiest = lt.busy
				}
			}
			genSelf += gen - gHalo
			halo += gHalo
			self.kernel += (gen - gHalo) / lanes
			self.barrier += bar / lanes
			self.halo += gHalo / lanes
			spawn += wallUs - busiest
			spawnRuns++
			if e == "parallel" {
				barrierShare += bar / lanes / wallUs
			} else {
				haloShare += gHalo / lanes / wallUs
			}
		}
	}
	self.put(vals)
	runs := float64(b.w.tracedRuns)
	vals["life.gen_self_mean_us"] = ratio(genSelf, genCount)
	vals["life.spawn_overhead_us"] = ratio(spawn, spawnRuns)
	snap := waits.Snapshot()
	vals["pthread.barrier_wait_mean_us"] = ratio(float64(snap.Sum)/1e3, float64(snap.Count))
	vals["pthread.barrier_wait_share"] = barrierShare / runs
	vals["msgpass.halo_mean_us"] = ratio(halo, haloCount)
	vals["msgpass.halo_share"] = haloShare / runs
	dropped += bench.Drops()
	vals["obs.dropped_events"] = float64(dropped)
	if dropped != 0 {
		b.t.invalidate("trace: %d events dropped", dropped)
	}
	var tracedRotation float64
	for _, e := range engines {
		tracedRotation += median(tracedWalls[e]) / 1e3
	}
	vals["obs.trace_overhead_pct"] = 100 * (ratio(tracedRotation, untracedRotationMs) - 1)
	return b.cfg.writeTrace(bench, b.w.name)
}
