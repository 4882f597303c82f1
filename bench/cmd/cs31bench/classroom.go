package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cs31/internal/obs"
)

// The classroom workloads drive a labd child over loopback HTTP from one
// process with at most `clients` keep-alive connections. Each run has
// two measured phases on the last of its set-up instances, and each phase
// alternates slices of load on labd with slices of the same load on the
// reference server (reference.go):
//
//   - paced: an open loop. Requests fall due on 1 ms ticks, a Poisson
//     count per tick, and latency runs from the due time, so a stall
//     shows as waiting for every request behind it.
//   - saturated: a closed loop of `clients` senders, each sending its
//     next request when the previous reply is checked, like autograders
//     that wait for their answers.

// loadClient is the generator's HTTP side.
type loadClient struct {
	hc   *http.Client
	base string
}

func newLoadClient(base string) *loadClient {
	tr := &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	return &loadClient{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// reply is one HTTP answer; body aliases the sender's buffer.
type reply struct {
	status  int
	outcome string // X-Labd-Cache
	id      uint64 // X-Labd-Request-Id
	body    []byte
}

func (c *loadClient) send(in *input, buf *bytes.Buffer) (reply, error) {
	var body io.Reader
	if in.body != nil {
		body = bytes.NewReader(in.body)
	}
	req, err := http.NewRequest(in.method, c.base+in.path, body)
	if err != nil {
		return reply{}, err
	}
	if in.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, fmt.Errorf("read %s reply: %w", in.t.name, err)
	}
	id, _ := strconv.ParseUint(resp.Header.Get("X-Labd-Request-Id"), 16, 64)
	return reply{status: resp.StatusCode, outcome: resp.Header.Get("X-Labd-Cache"), id: id, body: buf.Bytes()}, nil
}

// verifier checks replies. On classroom-repeat it keeps the first body
// seen for every request and holds every later reply to the same bytes,
// so memo can never serve one request another's answer unnoticed.
type verifier struct {
	fresh bool
	mu    sync.Mutex
	ref   map[*input][]byte
}

// verify checks status, cache outcome and body. want is the X-Labd-Cache
// value the phase requires of cacheable requests; "" accepts any.
// Uncacheable requests must read "bypass" and are exempt from the
// identity check: their body holds wall-clock timings.
func (v *verifier) verify(in *input, r reply, want string) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", in.method, in.path, r.status, r.body)
	}
	if in.t.speedup {
		want = "bypass"
	}
	if want != "" && r.outcome != want {
		return fmt.Errorf("%s: X-Labd-Cache %q, want %q", in.t.name, r.outcome, want)
	}
	if v.fresh || in.t.speedup {
		return in.t.check(r.body, in)
	}
	v.mu.Lock()
	ref, seen := v.ref[in]
	v.mu.Unlock()
	if seen {
		if !bytes.Equal(ref, r.body) {
			return fmt.Errorf("%s: reply differs from the first reply to the same request", in.t.name)
		}
		return nil
	}
	if err := in.t.check(r.body, in); err != nil {
		return fmt.Errorf("%s: %w", in.t.name, err)
	}
	v.mu.Lock()
	v.ref[in] = append([]byte(nil), r.body...)
	v.mu.Unlock()
	return nil
}

// sample is one request as the generator saw it; times are ns since the
// phase's time zero. It holds no pointers, so the garbage collector need
// not scan the hundreds of thousands a run keeps.
type sample struct {
	tmpl        int
	hit, bypass bool // X-Labd-Cache outcome
	ok          bool
	id          uint64
	due         int64
	sent        int64
	done        int64
}

// benchLane records the benchmark's own spans for one sender during the
// traced pass: "op" around a whole request, with "encode" and "check"
// children. It also sums them, for the self-time split.
type benchLane struct {
	lane                 *obs.Lane
	nOp, nEncode, nCheck obs.Name
	opNs, benchNs        int64
	n                    int64
}

func newBenchLanes(tr *obs.Trace, n int) []*benchLane {
	lanes := make([]*benchLane, n)
	for i := range lanes {
		lanes[i] = &benchLane{
			lane: tr.Lane(fmt.Sprintf("client %d", i)),
			nOp:  tr.Name("op"), nEncode: tr.Name("encode"), nCheck: tr.Name("check"),
		}
	}
	return lanes
}

// classroom is one run of a classroom workload.
type classroom struct {
	w   *workload
	cfg runConfig
	t   *tally
	m   *mix
	v   *verifier
}

// target is a server the generator loads: labd or the reference. Request
// i sent to it is pick(i); check judges the reply. next hands out request
// indices, so every index of a phase's stream is sent once.
type target struct {
	name  string
	cl    *loadClient
	pick  func(i int64) *input
	check func(in *input, r reply) error
	next  atomic.Int64
}

// labdTarget sends phase's stream of the mix to labd; want is the
// X-Labd-Cache value cacheable replies must carry ("" accepts any).
func (c *classroom) labdTarget(cl *loadClient, phase int, want string) *target {
	return &target{name: "labd", cl: cl,
		pick:  func(i int64) *input { return c.m.at(phase, i) },
		check: func(in *input, r reply) error { return c.v.verify(in, r, want) }}
}

// refTarget sends a stream of the same mix, drawn the same way, to the
// reference server.
func (c *classroom) refTarget(cl *loadClient) *target {
	return &target{name: "reference", cl: cl,
		pick:  func(i int64) *input { return c.m.at(phaseReference, i) },
		check: checkReference}
}

// exchange encodes request i, sends it, and checks the reply.
func (c *classroom) exchange(tg *target, i int64, buf *bytes.Buffer, zero time.Time, due int64, bl *benchLane) sample {
	t0 := time.Now()
	in := tg.pick(i)
	t1 := time.Now()
	rep, err := tg.cl.send(in, buf)
	t2 := time.Now()
	if err == nil {
		err = tg.check(in, rep)
	}
	t3 := time.Now()
	ok := c.t.op(tg.name+" "+in.t.name, err)
	if bl != nil {
		bl.lane.Complete(bl.nEncode, t0)
		bl.lane.Complete(bl.nCheck, t2)
		bl.lane.Complete(bl.nOp, t0)
		bl.opNs += int64(t3.Sub(t0))
		bl.benchNs += int64(t1.Sub(t0) + t3.Sub(t2))
		bl.n++
	}
	return sample{tmpl: in.t.id, hit: rep.outcome == "hit", bypass: rep.outcome == "bypass", ok: ok, id: rep.id,
		due: due, sent: int64(t1.Sub(zero)), done: int64(t2.Sub(zero))}
}

// closedLoop runs `clients` senders over the target's next requests until
// n are sent (n > 0) or the deadline passes.
func (c *classroom) closedLoop(tg *target, n int64, deadline time.Time, lanes []*benchLane) []sample {
	first := tg.next.Load()
	per := make([][]sample, clients)
	zero := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < clients; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var buf bytes.Buffer
			var bl *benchLane
			if lanes != nil {
				bl = lanes[s]
			}
			for {
				if n == 0 && !time.Now().Before(deadline) {
					return
				}
				i := tg.next.Add(1) - 1
				if n > 0 && i >= first+n {
					return
				}
				smp := c.exchange(tg, i, &buf, zero, 0, bl)
				smp.due = smp.sent
				per[s] = append(per[s], smp)
			}
		}(s)
	}
	wg.Wait()
	var samples []sample
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples
}

// paced runs the open loop on the target: rate requests per second for
// dur, as a Poisson count on every 1 ms tick. The pacer wakes on each
// tick and hands the tick's requests to the senders through a channel
// with room for every scheduled request, so it never blocks. lateness
// holds each tick's wake-up lateness in ms.
//
// The pacer sleeps with nanosleep on a thread of its own. Go's timers
// wake a sub-millisecond sleep on an idle process anywhere up to 1 ms
// late (lateness p50 0.5 ms on a 2-CPU VM), which would put the timer's
// error into every latency; a kernel sleep wakes within about 0.1 ms.
func (c *classroom) paced(tg *target, rng *rand.Rand, rate float64, dur time.Duration) (samples []sample, lateness []float64) {
	ticks := int(dur / time.Millisecond)
	var due []int64
	for k := 0; k < ticks; k++ {
		for n := poisson(rng, rate/1000); n > 0; n-- {
			due = append(due, int64(k)*int64(time.Millisecond))
		}
	}
	first := tg.next.Add(int64(len(due))) - int64(len(due))
	work := make(chan int, len(due))
	zero := time.Now().Add(5 * time.Millisecond)

	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for s := 0; s < clients; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range work {
				per[s] = append(per[s], c.exchange(tg, first+int64(i), &buf, zero, due[i], nil))
			}
		}(s)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for k, i := 0, 0; k < ticks; k++ {
		tick := zero.Add(time.Duration(k) * time.Millisecond)
		if d := time.Until(tick); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens a tick; lateness records it
		}
		lateness = append(lateness, float64(time.Since(tick))/1e6)
		for ; i < len(due) && due[i] <= int64(k)*int64(time.Millisecond); i++ {
			work <- i
		}
	}
	close(work)
	wg.Wait()
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples, lateness
}

// poisson draws a Poisson(lambda) count by Knuth's method; lambda is a
// few requests per tick.
func poisson(rng *rand.Rand, lambda float64) int {
	limit, p, k := math.Exp(-lambda), 1.0, 0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// want is the cache outcome measured phases require of cacheable
// requests: a fresh key always misses. Repeat hits are counted instead,
// since a rare eviction is legal.
func (c *classroom) want() string {
	if c.w.fresh {
		return "miss"
	}
	return ""
}

// setUp brings a new labd instance to its measured state: every pool
// key primed once (repeat), or a fixed count of warm-up requests
// (fresh). Every set-up request is a miss on the new instance.
func (c *classroom) setUp(cl *loadClient, rep int) {
	if c.w.fresh {
		tg := c.labdTarget(cl, phaseSetup, "miss")
		tg.next.Store(int64(rep * c.w.warmup))
		c.closedLoop(tg, int64(c.w.warmup), time.Time{}, nil)
		return
	}
	keys := c.m.keys()
	tg := &target{name: "labd", cl: cl, pick: func(i int64) *input { return keys[i] },
		check: func(in *input, r reply) error { return c.v.verify(in, r, "miss") }}
	c.closedLoop(tg, int64(len(keys)), time.Time{}, nil)
}

// Slices of the measured phases: each paced slice on labd is followed by
// one on the reference, and likewise each saturated slice. Short slices
// pair the two sides closely in time; each slice still holds hundreds of
// requests at the paced rates and hundreds to thousands in the closed
// loop.
const (
	pacedSlice     = 500 * time.Millisecond
	saturatedSlice = 100 * time.Millisecond
	refWarmup      = 500 // requests the reference serves before timing
)

// measured is what the two alternating phases collect.
type measured struct {
	paced, refPaced []sample
	sat, refSat     []sample
	pacedRel        []float64 // labd's paced latency p50 over the reference's, per slice pair
	satRel          []float64 // labd's saturated latency p50 over the reference's, per slice pair
	lateness        []float64 // pacer tick lateness on labd's slices, ms
	satRate         []float64 // labd's checked replies per second, per slice
	refRate         []float64 // the reference's, per slice
	labdWall        float64   // seconds labd was under load
	rssMB           float64   // labd's peak RSS after the paced phase
}

// measure runs the paced then the saturated phase, each half the window,
// alternating labd and reference slices. labd's peak RSS is read between
// the two, when the requests it has served are fixed by the seed alone:
// how many the saturated phase adds depends on the host's speed, and on
// classroom-fresh each of them grows labd's memo.
func (c *classroom) measure(cl, rcl *loadClient, labdPid int) (*measured, error) {
	labdPaced := c.labdTarget(cl, phasePaced, c.want())
	labdSat := c.labdTarget(cl, phaseSaturated, c.want())
	ref := c.refTarget(rcl)
	c.closedLoop(ref, refWarmup, time.Time{}, nil)

	phase := c.cfg.window / 2
	pSlice, sSlice := min(pacedSlice, phase/2), min(saturatedSlice, phase/2)
	ms := &measured{}
	p50 := func(smp []sample) float64 { return quantile(latencies(smp), 0.5) }
	// Both sides draw their arrivals from one generator in turn, so each
	// sees the same Poisson process.
	rng := rand.New(rand.NewSource(c.cfg.seed ^ 0x9ACED))
	for k := 0; k < int(phase/(2*pSlice)); k++ {
		t0 := time.Now()
		smp, late := c.paced(labdPaced, rng, c.w.rate, pSlice)
		ms.labdWall += time.Since(t0).Seconds()
		ms.paced = append(ms.paced, smp...)
		ms.lateness = append(ms.lateness, late...)
		refSmp, _ := c.paced(ref, rng, c.w.rate, pSlice)
		ms.refPaced = append(ms.refPaced, refSmp...)
		ms.pacedRel = append(ms.pacedRel, ratio(p50(smp), p50(refSmp)))
	}
	var err error
	if ms.rssMB, err = peakRSSMB(labdPid); err != nil {
		return nil, err
	}
	rate := func(smp []sample, t0 time.Time) float64 {
		ok := 0
		for _, s := range smp {
			if s.ok {
				ok++
			}
		}
		return float64(ok) / time.Since(t0).Seconds()
	}
	for k := 0; k < int(phase/(2*sSlice)); k++ {
		t0 := time.Now()
		smp := c.closedLoop(labdSat, 0, t0.Add(sSlice), nil)
		ms.satRate = append(ms.satRate, rate(smp, t0))
		ms.labdWall += time.Since(t0).Seconds()
		ms.sat = append(ms.sat, smp...)
		t0 = time.Now()
		refSmp := c.closedLoop(ref, 0, t0.Add(sSlice), nil)
		ms.refRate = append(ms.refRate, rate(refSmp, t0))
		ms.refSat = append(ms.refSat, refSmp...)
		ms.satRel = append(ms.satRel, ratio(p50(smp), p50(refSmp)))
	}
	return ms, nil
}

func runClassroom(w *workload, cfg runConfig, t *tally) (map[string]float64, error) {
	c := &classroom{w: w, cfg: cfg, t: t, m: newMix(cfg.seed, w.fresh),
		v: &verifier{fresh: w.fresh, ref: map[*input][]byte{}}}
	vals := map[string]float64{}

	ref, err := cfg.startRef(false)
	if err != nil {
		return nil, err
	}
	refRunning := true
	defer func() {
		if refRunning {
			_, _ = ref.stop() // an error is already being returned
		}
	}()

	// Set-up runs cfg.setups times, each on a new instance; the last one
	// is measured.
	var srv *server
	var setups []float64
	for rep := 0; rep < cfg.setups; rep++ {
		if srv != nil {
			if _, err := srv.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		s, err := cfg.start(false)
		if err != nil {
			return nil, err
		}
		srv = s
		cl := newLoadClient(srv.url)
		c.setUp(cl, rep)
		cl.close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	vals["setup_s"] = median(setups)

	running := true
	defer func() {
		if running {
			_, _ = srv.stop() // an error is already being returned
		}
	}()
	cl := newLoadClient(srv.url)
	defer cl.close()
	rcl := newLoadClient(ref.url)
	defer rcl.close()
	before, err := readMetrics(cl.hc, srv.url)
	if err != nil {
		return nil, err
	}
	ms, err := c.measure(cl, rcl, srv.pid)
	if err != nil {
		return nil, err
	}
	after, err := readMetrics(cl.hc, srv.url)
	if err != nil {
		return nil, err
	}
	vals["rss_peak_mb"] = ms.rssMB
	rcl.close()
	refRunning = false
	if _, err := ref.stop(); err != nil {
		return nil, err
	}

	if cfg.traced && w.fresh {
		if err := c.replay(cl, srv.url, vals); err != nil {
			return nil, err
		}
	}
	running = false
	if _, err := srv.stop(); err != nil {
		return nil, err
	}

	c.endToEnd(vals, ms)
	c.checkOutcomes(append(append([]sample(nil), ms.paced...), ms.sat...))
	lat := sortedCopy(ms.lateness)
	vals["gen.lateness_p50_ms"] = quantile(lat, 0.5)
	vals["gen.lateness_p99_ms"] = quantile(lat, 0.99)
	if p50 := vals["gen.lateness_p50_ms"]; p50 > 0.5 {
		t.invalidate("pacing: tick lateness p50 %.3f ms exceeds 0.5 ms, so latencies would measure the timer, not labd", p50)
	}
	c.layers(vals, ms.paced, ms.sat, before, after, ms.labdWall)

	if cfg.traced {
		if err := c.tracedPass(vals); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// latencies returns the samples' latencies from due time, sorted; in a
// closed loop a request is due when it is sent. A failed request counts
// as infinitely late.
func latencies(smp []sample) []float64 {
	lat := make([]float64, 0, len(smp))
	for _, s := range smp {
		if s.ok {
			lat = append(lat, float64(s.done-s.due)/1e6)
		} else {
			lat = append(lat, math.Inf(1))
		}
	}
	sort.Float64s(lat)
	return lat
}

// endToEnd computes the user-visible metrics from the saturated phase,
// each the median over slice pairs of labd's figure over the
// reference's: the p50 request latency, and checked replies per second.
// The paced phase's latencies, timed from due time, are per-layer
// metrics. On a shared 2-CPU host a paced request at these rates mostly
// waits for an idle CPU to wake, so labd's paced p50 tracks how busy the
// host's other tenants keep it: over ten seeds its ratio to the
// reference spread 7 to 19%, against 3.5 to 5% for the saturated ratio.
func (c *classroom) endToEnd(vals map[string]float64, ms *measured) {
	lat, refLat := latencies(ms.sat), latencies(ms.refSat)
	vals["latency_p50_ms"] = quantile(lat, 0.5)
	vals["latency_p95_ms"] = quantile(lat, 0.95)
	vals["ref.latency_p50_ms"] = quantile(refLat, 0.5)
	vals["latency_p50_rel"] = median(ms.satRel)

	pairs := make([]float64, len(ms.satRate))
	for i := range pairs {
		pairs[i] = ratio(ms.satRate[i], ms.refRate[i])
	}
	vals["throughput_ops_s"] = median(ms.satRate)
	vals["ref.throughput_ops_s"] = median(ms.refRate)
	vals["throughput_rel"] = median(pairs)

	paced := latencies(ms.paced)
	vals["paced.latency_p50_ms"] = quantile(paced, 0.5)
	vals["paced.latency_p95_ms"] = quantile(paced, 0.95)
	vals["paced.latency_p99_ms"] = quantile(paced, 0.99)
	vals["paced.latency_p99_beyond"] = float64(beyond(paced, vals["paced.latency_p99_ms"]))
	vals["paced.latency_p999_ms"] = quantile(paced, 0.999)
	vals["paced.latency_p999_beyond"] = float64(beyond(paced, vals["paced.latency_p999_ms"]))
	vals["paced.ref.latency_p50_ms"] = quantile(latencies(ms.refPaced), 0.5)
	vals["paced.latency_p50_rel"] = median(ms.pacedRel)

	var sent, failed float64
	for _, ss := range [][]sample{ms.paced, ms.refPaced, ms.sat, ms.refSat} {
		for _, s := range ss {
			sent++
			if !s.ok {
				failed++
			}
		}
	}
	vals["gen.sent"], vals["gen.failed"] = sent, failed
}

// checkOutcomes enforces the memo invariants of the measured phases: on
// classroom-repeat at least 99% of requests are hits (the per-request
// check already holds fresh requests to "miss").
func (c *classroom) checkOutcomes(all []sample) {
	if c.w.fresh || len(all) == 0 {
		return
	}
	hits := 0
	for _, s := range all {
		if s.hit {
			hits++
		}
	}
	if share := float64(hits) / float64(len(all)); share < 0.99 {
		c.t.invalidate("memo: %.2f%% of primed repeat requests were hits, want at least 99%%", 100*share)
	}
}

// layers derives the per-layer metrics of the untraced run from the
// client's samples and the /metrics scrapes taken around both phases;
// wall is the time labd was under load.
func (c *classroom) layers(vals map[string]float64, paced, sat []sample, before, after scrape, wall float64) {
	var svc, hits []float64
	byRoute := map[string][]float64{}
	bypass := 0
	for _, ss := range [][]sample{paced, sat} {
		for _, s := range ss {
			if !s.ok {
				continue
			}
			ms := float64(s.done-s.sent) / 1e6
			svc = append(svc, ms)
			route := templates[s.tmpl].route
			byRoute[route] = append(byRoute[route], ms)
			if s.hit {
				hits = append(hits, ms)
			}
			if s.bypass {
				bypass++
			}
		}
	}
	vals["labd.hit_p50_ms"] = median(hits)
	vals["labd.client_mean_ms"] = mean(svc)
	for _, r := range routes {
		vals["labd.route."+r+".p50_ms"] = median(byRoute[r])
	}
	const v1 = `/v1/`
	vals["labd.server_mean_ms"] = 1e3 * meanDelta(before, after, "labd_request_duration_seconds", v1)
	vals["labd.client_overhead_mean_ms"] = vals["labd.client_mean_ms"] - vals["labd.server_mean_ms"]
	vals["labd.marshal_mean_us"] = 1e6 * meanDelta(before, after, "labd_marshal_duration_seconds")

	vals["sched.queue_wait_mean_us"] = 1e6 * meanDelta(before, after, "labd_queue_wait_seconds")
	vals["sched.handler_mean_ms"] = 1e3 * meanDelta(before, after, "labd_handler_duration_seconds")
	vals["sched.busy_share"] = delta(before, after, "labd_handler_duration_seconds_sum") / (labdWorkers * wall)
	vals["sched.submitted"] = delta(before, after, "labd_scheduler_submitted_total")
	vals["sched.rejected"] = delta(before, after, "labd_scheduler_rejected_total")
	vals["sched.skipped"] = delta(before, after, "labd_scheduler_skipped_total")
	vals["sched.queue_hwm"] = after.sum("labd_queue_hwm")

	h := delta(before, after, "labd_cache_hits_total")
	m := delta(before, after, "labd_cache_misses_total")
	co := delta(before, after, "labd_cache_coalesced_total")
	vals["memo.hits"], vals["memo.misses"], vals["memo.coalesced"] = h, m, co
	vals["memo.lookups"] = h + m + co
	vals["memo.hit_ratio"] = ratio(h+co, h+m+co)
	vals["memo.bypass"] = float64(bypass)
	vals["memo.evictions"] = delta(before, after, "labd_cache_evictions_total")
	vals["memo.bytes"] = after.sum("labd_cache_bytes")
	vals["memo.hit_mean_us"] = 1e6 * meanDelta(before, after, "labd_cache_request_duration_seconds", `outcome="hit"`)
	vals["memo.miss_mean_ms"] = 1e3 * meanDelta(before, after, "labd_cache_request_duration_seconds", `outcome="miss"`)
}
