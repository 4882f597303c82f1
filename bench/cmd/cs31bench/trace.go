package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cs31/internal/obs"
)

// chromeTrace is the part of an exported obs trace the self-time split
// reads.
type chromeTrace struct {
	TraceEvents []chromeEvent     `json:"traceEvents"`
	OtherData   map[string]string `json:"otherData"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// parseTrace validates a Chrome trace with obs.ValidateChromeTrace and
// decodes it, returning its dropped-event count.
func parseTrace(data []byte) (*chromeTrace, int64, error) {
	if _, err := obs.ValidateChromeTrace(data); err != nil {
		return nil, 0, err
	}
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, 0, fmt.Errorf("decode trace: %w", err)
	}
	var dropped int64
	if s := tr.OtherData["droppedEvents"]; s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("trace droppedEvents %q: %w", s, err)
		}
		dropped = n
	}
	return &tr, dropped, nil
}

// laneTotals sums one lane's span time by name (µs): B/E pairs and X
// events alike. busy sums the top-level spans only, the time the lane's
// goroutine spent inside any recorded span.
type laneTotals struct {
	total map[string]float64
	count map[string]int
	busy  float64
}

func totalsByLane(tr *chromeTrace) map[int]*laneTotals {
	type open struct {
		name string
		ts   float64
	}
	lanes := map[int]*laneTotals{}
	stacks := map[int][]open{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		lt := lanes[ev.Tid]
		if lt == nil {
			lt = &laneTotals{total: map[string]float64{}, count: map[string]int{}}
			lanes[ev.Tid] = lt
		}
		st := stacks[ev.Tid]
		var dur float64
		switch ev.Ph {
		case "B":
			stacks[ev.Tid] = append(st, open{ev.Name, ev.Ts})
			continue
		case "E":
			// ValidateChromeTrace has matched every E to its B.
			top := st[len(st)-1]
			st = st[:len(st)-1]
			stacks[ev.Tid] = st
			dur = ev.Ts - top.ts
		case "X":
			dur = ev.Dur
		default:
			continue
		}
		lt.total[ev.Name] += dur
		lt.count[ev.Name]++
		if len(st) == 0 {
			lt.busy += dur
		}
	}
	return lanes
}

// tracedPass is the classroom workload's traced run: a new labd
// recording a trace is set up like the measured one, then serves a fixed
// count of requests from the closed loop while the benchmark records its
// own spans, then drains on SIGTERM and writes its trace. The count
// keeps labd's busiest lane, "http", under obs.DefaultLaneCapacity.
func (c *classroom) tracedPass(vals map[string]float64) error {
	srv, err := c.cfg.start(true)
	if err != nil {
		return err
	}
	cl := newLoadClient(srv.url)
	c.setUp(cl, c.cfg.setups)
	bench := obs.New(obs.WithLaneCapacity(4 * c.w.tracedReqs))
	lanes := newBenchLanes(bench, clients)
	t0 := time.Now()
	samples := c.closedLoop(c.labdTarget(cl, phaseTraced, c.want()), int64(c.w.tracedReqs), time.Time{}, lanes)
	wall := time.Since(t0).Seconds()
	cl.close()
	data, err := srv.stop()
	if err != nil {
		return err
	}
	tr, dropped, err := parseTrace(data)
	if err != nil {
		return fmt.Errorf("labd trace: %w", err)
	}
	dropped += int64(bench.Drops())
	if err := c.cfg.writeTrace(bench, c.w.name); err != nil {
		return err
	}

	// labd's worker spans carry no request ID, so its split is
	// aggregate: request spans are matched to the pass by the IDs the
	// replies carried, and queue-wait, handler and marshal spans by the
	// window those requests cover.
	ids := map[float64]bool{}
	for _, s := range samples {
		ids[float64(s.id)] = true
	}
	var req, lo, hi float64
	lo = -1
	for _, ev := range tr.TraceEvents {
		if ev.Name != "request" || ev.Ph != "X" {
			continue
		}
		if id, _ := ev.Args["id"].(float64); ids[id] {
			req += ev.Dur
			if lo < 0 || ev.Ts < lo {
				lo = ev.Ts
			}
			if end := ev.Ts + ev.Dur; end > hi {
				hi = end
			}
		}
	}
	inner := map[string]float64{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.Ts >= lo && ev.Ts+ev.Dur <= hi {
			inner[ev.Name] += ev.Dur
		}
	}
	var opNs, benchNs, n int64
	for _, bl := range lanes {
		opNs, benchNs, n = opNs+bl.opNs, benchNs+bl.benchNs, n+bl.n
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	front := req - inner["queue-wait"] - inner["handler"] - inner["marshal"]
	self := selfTimes{
		total:   us(opNs),
		bench:   us(benchNs),
		front:   front,
		queue:   inner["queue-wait"],
		handler: inner["handler"],
		marshal: inner["marshal"],
	}
	self.put(vals)
	vals["labd.front_self_mean_us"] = ratio(front, float64(n))
	vals["obs.dropped_events"] = float64(dropped)
	if dropped != 0 {
		c.t.invalidate("trace: %d events dropped", dropped)
	}
	if rps := float64(n) / wall; rps > 0 {
		vals["obs.trace_overhead_pct"] = 100 * (vals["throughput_ops_s"]/rps - 1)
	}
	return nil
}

// selfTimes is the traced pass's split of end-to-end time (µs) into
// layer self times; residual is what no recorded span accounts for.
type selfTimes struct {
	total, bench, front, queue, handler, marshal, kernel, barrier, halo float64
}

func (s selfTimes) put(vals map[string]float64) {
	ms := func(us float64) float64 { return us / 1e3 }
	vals["self.total_ms"] = ms(s.total)
	vals["self.bench_ms"] = ms(s.bench)
	vals["self.labd_front_ms"] = ms(s.front)
	vals["self.sched_queue_ms"] = ms(s.queue)
	vals["self.handler_ms"] = ms(s.handler)
	vals["self.marshal_ms"] = ms(s.marshal)
	vals["self.life_kernel_ms"] = ms(s.kernel)
	vals["self.barrier_ms"] = ms(s.barrier)
	vals["self.halo_ms"] = ms(s.halo)
	vals["self.residual_ms"] = ms(s.total - s.bench - s.front - s.queue - s.handler - s.marshal - s.kernel - s.barrier - s.halo)
}

// writeTrace saves the benchmark's own spans as a Chrome trace under
// workdir/trace, for a timeline viewer.
func (cfg runConfig) writeTrace(tr *obs.Trace, workload string) error {
	if cfg.workdir == "" {
		return nil
	}
	dir := filepath.Join(cfg.workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return fmt.Errorf("export benchmark trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("cs31bench-%s-seed%d.json", workload, cfg.seed))
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// replay splits labd glue from simulator time on classroom-fresh: for
// every template a direct call can repeat, it sends replayPerTemplate of
// the workload's own inputs to labd one at a time, reading the handler
// histogram from /metrics around them, then runs the same inputs through
// the simulator packages.
func (c *classroom) replay(cl *loadClient, url string, vals map[string]float64) error {
	per := c.cfg.replayPerTemplate
	byTmpl := map[*tmpl][]*input{}
	want := 0
	for _, t := range c.m.tmpls {
		if t.direct != nil {
			want += per
		}
	}
	for i, got := int64(0), 0; got < want; i++ {
		if in := c.m.at(phaseReplay, i); in.t.direct != nil && len(byTmpl[in.t]) < per {
			byTmpl[in.t] = append(byTmpl[in.t], in)
			got++
		}
	}
	var buf bytes.Buffer
	var st directTimes
	var glueNum, glueDen, lifeW, lifeSum, asmRuns float64
	direct := map[string]float64{} // mean direct µs by template
	// Start the direct calls from a collected heap, as labd's is between
	// requests.
	runtime.GC()
	for _, t := range c.m.tmpls {
		ins := byTmpl[t]
		if t.direct == nil || len(ins) == 0 {
			continue
		}
		before, err := readMetrics(cl.hc, url)
		if err != nil {
			return err
		}
		for _, in := range ins {
			rep, err := cl.send(in, &buf)
			if err == nil {
				err = c.v.verify(in, rep, "miss")
			}
			c.t.op("replay "+t.name, err)
		}
		after, err := readMetrics(cl.hc, url)
		if err != nil {
			return err
		}
		handlerUs := 1e6 * meanDelta(before, after, "labd_handler_duration_seconds")

		// The first pass warms the benchmark's heap to the allocation
		// pattern labd's long-lived heap already has; the second is timed.
		var warm directTimes
		for _, in := range ins {
			c.t.op("direct "+t.name, t.direct(in, &warm))
		}
		t0 := time.Now()
		for _, in := range ins {
			c.t.op("direct "+t.name, t.direct(in, &st))
		}
		us := float64(time.Since(t0)) / 1e3 / float64(len(ins))
		direct[t.name] = us
		w := float64(t.freshWeight)
		glueNum += w * us
		glueDen += w * handlerUs
		switch t.route {
		case "life":
			lifeW += w
			lifeSum += w * us
		case "asm":
			asmRuns += float64(len(ins))
		}
	}
	vals["labd.glue_share"] = 1 - ratio(glueNum, glueDen)
	vals["asm.run_mean_us"] = ratio(float64(st.asmNs)/1e3, asmRuns)
	vals["asm.steps_per_s"] = ratio(float64(st.asmSteps), float64(st.asmNs)/1e9)
	vals["minic.compile_mean_us"] = ratio(float64(st.compileNs)/1e3, float64(st.compiles))
	vals["cache.sim_mean_us"] = direct["cache-256"]
	vals["vm.sim_mean_us"] = direct["vm-64"]
	vals["homework.generate_mean_us"] = direct["homework"]
	vals["survey.figure_mean_us"] = direct["survey"]
	vals["life.request_mean_us"] = ratio(lifeSum, lifeW)
	return nil
}
