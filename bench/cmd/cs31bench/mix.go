package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"cs31/internal/asm"
	"cs31/internal/cache"
	"cs31/internal/homework"
	"cs31/internal/life"
	"cs31/internal/memhier"
	"cs31/internal/minic"
	"cs31/internal/survey"
	"cs31/internal/vm"
)

// The classroom mix is synthetic. No record of real labd traffic exists,
// so the template weights, the Zipf popularity and the pool size are not
// a model of what a class sends: they are chosen to give every endpoint
// family a share of the load, with the same work on both classroom
// workloads, so that the two isolate layers (all memo hits against all
// misses). A claim about real classroom traffic needs a recorded trace.
//
// Each template draws one parameter. On classroom-repeat the
// parameter is one of poolSize values with Zipf popularity, so the whole
// key space is primed in set-up and the measured phases are memo hits. On
// classroom-fresh every request gets a new canonical key with the same
// work: a new seed for life, homework and survey, a new max_steps for asm
// and mini-C, and a new PRNG-drawn trace of the same length for cache and
// vm.

const (
	poolSize  = 64
	zipfS     = 1.2
	asmLoops  = 2000 // asm-loop iterations: about 6000 machine steps
	minicN    = 200  // mini-C loop bound: the program sums 0..199
	cacheLen  = 256  // accesses per cache trace
	vmLen     = 64   // accesses per vm trace
	vmProcs   = 3
	lifeIters = 20
	hwN       = 5
	students  = 120

	// freshStepsBase keeps every fresh max_steps below labd's default
	// 10M-step cap, so the budget never binds and every fresh asm and
	// mini-C request does the same work as its repeat twin.
	freshStepsBase = 1_000_000
	// phaseStride separates the fresh keys of different phases of one
	// run; no phase sends this many requests.
	phaseStride = 1_000_000
)

// Phases index independent request streams of one run.
const (
	phaseSetup = iota
	phasePaced
	phaseSaturated
	phaseTraced
	phaseReplay
	phaseReference // requests to the reference server
)

// tmpl is one request template of the classroom mix.
type tmpl struct {
	id           int // index in templates
	name         string
	route        string // labd endpoint family: asm, minic, cache, vm, life, homework, survey
	repeatWeight int
	freshWeight  int

	rows, cols, threads int    // life templates
	engine              string // life templates: "", "dist"
	packed              bool   // life templates
	speedup             bool   // life templates; labd serves these uncached

	request func(in *input) (method, path string, body []byte)
	check   func(body []byte, in *input) error
	// direct runs the same work through the simulator packages, for the
	// replay that splits labd glue from simulator time. Nil for the two
	// life templates a direct call cannot repeat: packed (the benchmark
	// never switches a grid's representation) and speedup (wall-clock
	// timings are its output).
	direct func(in *input, st *directTimes) error
}

// input is one concrete request: a template plus its drawn parameters.
type input struct {
	t      *tmpl
	exit   int64 // asm/mini-C exit status the program must return
	steps  int64 // max_steps; 0 leaves labd's default
	seed   int64 // life, homework, survey
	addrs  []uint64
	writes []bool
	pids   []int

	method, path string
	body         []byte
}

var templates = []*tmpl{
	{name: "asm-loop", route: "asm", repeatWeight: 10, freshWeight: 10,
		request: asmRequest(asmLoopSource), check: checkAsm, direct: directAsm(asmLoopSource)},
	{name: "asm-exit", route: "asm", repeatWeight: 10, freshWeight: 10,
		request: asmRequest(asmExitSource), check: checkAsm, direct: directAsm(asmExitSource)},
	{name: "minic-sum", route: "minic", repeatWeight: 20, freshWeight: 20,
		request: minicRequest, check: checkMinic, direct: directMinic},
	{name: "cache-256", route: "cache", repeatWeight: 15, freshWeight: 15,
		request: cacheRequest, check: checkCache, direct: directCache},
	{name: "vm-64", route: "vm", repeatWeight: 10, freshWeight: 10,
		request: vmRequest, check: checkVM, direct: directVM},
	{name: "life-32", route: "life", repeatWeight: 15, freshWeight: 14,
		rows: 32, cols: 32, threads: 1},
	{name: "life-128-t2", route: "life", repeatWeight: 6, freshWeight: 6,
		rows: 128, cols: 128, threads: 2},
	{name: "life-256-packed", route: "life", repeatWeight: 2, freshWeight: 2,
		rows: 256, cols: 256, threads: 2, packed: true},
	{name: "life-128-dist", route: "life", repeatWeight: 2, freshWeight: 2,
		rows: 128, cols: 128, threads: 2, engine: "dist"},
	{name: "homework", route: "homework", repeatWeight: 5, freshWeight: 5,
		request: homeworkRequest, check: checkHomework, direct: directHomework},
	{name: "survey", route: "survey", repeatWeight: 5, freshWeight: 5,
		request: surveyRequest, check: checkSurvey, direct: directSurvey},
	{name: "life-speedup", route: "life", freshWeight: 1,
		rows: 32, cols: 32, threads: 2, speedup: true},
}

// routes lists the endpoint families in labd's route order.
var routes = []string{"asm", "minic", "cache", "vm", "life", "homework", "survey"}

func init() {
	for i, t := range templates {
		t.id = i
		if t.route == "life" {
			t.request, t.check = lifeRequest, checkLife
			if !t.packed && !t.speedup {
				t.direct = directLife
			}
		}
	}
}

// mix draws the classroom requests of one workload and seed. Request i
// of a phase is a pure function of (seed, phase, i), so a run's inputs do
// not depend on which client happened to send what.
type mix struct {
	seed  int64
	fresh bool
	tmpls []*tmpl   // templates with weight on this workload
	deck  []int     // one card per unit of weight: an index into tmpls
	zipf  []float64 // cumulative popularity of pool ranks, normalised to 1
	off   int64     // seed-derived offset of exit values
	base  int64     // seed-derived base of life, homework and survey seeds
	pool  [][]*input
}

func newMix(seed int64, fresh bool) *mix {
	m := &mix{seed: seed, fresh: fresh}
	for _, t := range templates {
		w := t.repeatWeight
		if fresh {
			w = t.freshWeight
		}
		if w == 0 {
			continue
		}
		for c := 0; c < w; c++ {
			m.deck = append(m.deck, len(m.tmpls))
		}
		m.tmpls = append(m.tmpls, t)
	}
	var z float64
	for k := 1; k <= poolSize; k++ {
		z += math.Pow(float64(k), -zipfS)
		m.zipf = append(m.zipf, z)
	}
	for i := range m.zipf {
		m.zipf[i] /= z
	}
	s := newStream(seed, 0xC1A55)
	m.off = int64(s.intn(poolSize))
	m.base = 1 + int64(uint64(seed)%1000)<<40
	if !fresh {
		m.pool = make([][]*input, len(m.tmpls))
		for ti, t := range m.tmpls {
			for k := 0; k < poolSize; k++ {
				m.pool[ti] = append(m.pool[ti], m.build(t, true, int64(k)))
			}
		}
	}
	return m
}

// at returns request i of a phase's stream. Templates are dealt from the
// deck, reshuffled for every deck-length run of requests, so each such
// run carries the mix's exact proportions and seeds differ only in
// order: drawing templates independently let the share of slow life
// requests, and with it the latency tail, wander from seed to seed.
// Repeat requests share the pre-built input of their pool key; fresh
// ones are built on the spot.
func (m *mix) at(phase int, i int64) *input {
	n := len(m.deck)
	// The shuffle is an affine permutation of the deck positions.
	s := newStream(m.seed, uint64(phase), uint64(i/int64(n)))
	a := 1 + s.intn(n-1)
	for gcd(a, n) != 1 {
		a = 1 + s.intn(n-1)
	}
	ti := m.deck[(a*int(i%int64(n))+s.intn(n))%n]
	if !m.fresh {
		z := newStream(m.seed, uint64(phase), uint64(i), 0x21BF)
		k := sort.SearchFloat64s(m.zipf, z.float())
		if k >= poolSize {
			k = poolSize - 1
		}
		return m.pool[ti][k]
	}
	return m.build(m.tmpls[ti], false, int64(phase)*phaseStride+i)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// keys lists every pool input once (repeat only): the set-up primes them.
func (m *mix) keys() []*input {
	var all []*input
	for k := 0; k < poolSize; k++ {
		for ti := range m.tmpls {
			all = append(all, m.pool[ti][k])
		}
	}
	return all
}

// build draws the parameters of one request: pool rank n of a repeat
// key, or fresh request n.
func (m *mix) build(t *tmpl, pooled bool, n int64) *input {
	in := &input{t: t}
	s := newStream(m.seed, 0x7EACE, uint64(t.id), uint64(n))
	if pooled {
		in.exit = (n + m.off) % poolSize
		in.seed = m.base + n
	} else {
		in.exit = int64(s.intn(poolSize))
		in.steps = freshStepsBase + n
		in.seed = m.base + 1<<36 + n
	}
	switch t.route {
	case "cache":
		in.addrs = make([]uint64, cacheLen)
		in.writes = make([]bool, cacheLen)
		for j := range in.addrs {
			in.addrs[j] = uint64(s.intn(1<<16)) &^ 3
			in.writes[j] = s.intn(4) == 0
		}
	case "vm":
		in.addrs = make([]uint64, vmLen)
		in.writes = make([]bool, vmLen)
		in.pids = make([]int, vmLen)
		for j := range in.addrs {
			in.pids[j] = 1 + s.intn(vmProcs)
			in.addrs[j] = uint64(s.intn(64 * 256))
			in.writes[j] = s.intn(4) == 0
		}
	}
	in.method, in.path, in.body = t.request(in)
	return in
}

// stream is a splitmix64 generator: cheap to seed per request, so
// inputs can be drawn as pure functions of their coordinates.
type stream struct{ s uint64 }

func newStream(seed int64, parts ...uint64) *stream {
	s := &stream{s: uint64(seed)}
	for _, p := range parts {
		s.s = splitmix(s.s ^ p)
	}
	return s
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *stream) next() uint64 {
	s.s += 0x9e3779b97f4a7c15
	return splitmix(s.s)
}

func (s *stream) float() float64 { return float64(s.next()>>11) / (1 << 53) }
func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }

// --- request bodies -------------------------------------------------------

func asmLoopSource(exit int64) string {
	return fmt.Sprintf("main:\n    movl $%d, %%ecx\nloop:\n    decl %%ecx\n    cmpl $0, %%ecx\n    jne loop\n"+
		"    movl $%d, %%ebx\n    movl $1, %%eax\n    int $0x80\n", asmLoops, exit)
}

func asmExitSource(exit int64) string {
	return fmt.Sprintf("main:\n    movl $%d, %%ebx\n    movl $1, %%eax\n    int $0x80\n", exit)
}

func minicSource(exit int64) string {
	sum := minicN * (minicN - 1) / 2
	return fmt.Sprintf("int main() {\n    int s = 0;\n    for (int i = 0; i < %d; i++) { s += i; }\n    return s - %d + %d;\n}\n",
		minicN, sum, exit)
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request structs below always marshal
	}
	return b
}

type sourceRequest struct {
	Source   string `json:"source"`
	Run      bool   `json:"run,omitempty"`
	MaxSteps int64  `json:"max_steps,omitempty"`
}

func asmRequest(src func(int64) string) func(in *input) (string, string, []byte) {
	return func(in *input) (string, string, []byte) {
		return "POST", "/v1/asm/run", jsonBody(sourceRequest{Source: src(in.exit), MaxSteps: in.steps})
	}
}

func minicRequest(in *input) (string, string, []byte) {
	return "POST", "/v1/minic/compile", jsonBody(sourceRequest{Source: minicSource(in.exit), Run: true, MaxSteps: in.steps})
}

// traceJSON appends {"addr":A,"write":true} entries without reflection:
// fresh traces are encoded per request inside the timed path.
func traceJSON(b []byte, in *input) []byte {
	b = append(b, '[')
	for j, a := range in.addrs {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if in.pids != nil {
			b = append(b, `"pid":`...)
			b = strconv.AppendInt(b, int64(in.pids[j]), 10)
			b = append(b, ',')
		}
		b = append(b, `"addr":`...)
		b = strconv.AppendUint(b, a, 10)
		if in.writes[j] {
			b = append(b, `,"write":true`...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

func cacheRequest(in *input) (string, string, []byte) {
	b := traceJSON([]byte(`{"trace":`), in)
	return "POST", "/v1/cache/sim", append(b, '}')
}

func vmRequest(in *input) (string, string, []byte) {
	b := traceJSON([]byte(`{"trace":`), in)
	return "POST", "/v1/vm/sim", append(b, '}')
}

type lifeRequestBody struct {
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	Iters   int    `json:"iters"`
	Seed    int64  `json:"seed"`
	Threads int    `json:"threads,omitempty"`
	Engine  string `json:"engine,omitempty"`
	Packed  bool   `json:"packed,omitempty"`
	Speedup bool   `json:"speedup,omitempty"`
}

func lifeRequest(in *input) (string, string, []byte) {
	t := in.t
	threads := t.threads
	if threads == 1 {
		threads = 0
	}
	return "POST", "/v1/life/run", jsonBody(lifeRequestBody{
		Rows: t.rows, Cols: t.cols, Iters: lifeIters, Seed: in.seed,
		Threads: threads, Engine: t.engine, Packed: t.packed, Speedup: t.speedup,
	})
}

func homeworkRequest(in *input) (string, string, []byte) {
	return "GET", fmt.Sprintf("/v1/homework?topic=binary-conversion&n=%d&seed=%d", hwN, in.seed), nil
}

func surveyRequest(in *input) (string, string, []byte) {
	return "GET", fmt.Sprintf("/v1/survey/figure1?students=%d&seed=%d", students, in.seed), nil
}

// --- response checks --------------------------------------------------------

func checkAsm(body []byte, in *input) error {
	var r struct {
		ExitStatus *int64 `json:"exit_status"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.ExitStatus == nil || *r.ExitStatus != in.exit {
		return fmt.Errorf("exit status %v, want %d", r.ExitStatus, in.exit)
	}
	return nil
}

func checkMinic(body []byte, in *input) error {
	var r struct {
		Assembly   string `json:"assembly"`
		ExitStatus *int64 `json:"exit_status"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Assembly == "" || r.ExitStatus == nil || *r.ExitStatus != in.exit {
		return fmt.Errorf("exit status %v (assembly %d bytes), want %d", r.ExitStatus, len(r.Assembly), in.exit)
	}
	return nil
}

type simStats struct {
	Stats struct {
		Accesses int64
		Hits     int64
		Misses   int64
	} `json:"stats"`
}

func checkCache(body []byte, in *input) error {
	var r simStats
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if st := r.Stats; st.Accesses != int64(len(in.addrs)) || st.Hits+st.Misses != st.Accesses {
		return fmt.Errorf("cache stats %+v for a %d-access trace", st, len(in.addrs))
	}
	return nil
}

func checkVM(body []byte, in *input) error {
	var r simStats
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Stats.Accesses != int64(len(in.addrs)) {
		return fmt.Errorf("vm accesses %d for a %d-access trace", r.Stats.Accesses, len(in.addrs))
	}
	return nil
}

func checkLife(body []byte, in *input) error {
	var r struct {
		Rows        int               `json:"rows"`
		Cols        int               `json:"cols"`
		Generations int               `json:"generations"`
		Scaling     []json.RawMessage `json:"scaling"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	t := in.t
	if r.Rows != t.rows || r.Cols != t.cols || r.Generations != lifeIters {
		return fmt.Errorf("life echoed %dx%d gen %d, want %dx%d gen %d", r.Rows, r.Cols, r.Generations, t.rows, t.cols, lifeIters)
	}
	if t.speedup && len(r.Scaling) != t.threads {
		return fmt.Errorf("speedup table has %d points, want %d", len(r.Scaling), t.threads)
	}
	return nil
}

func checkHomework(body []byte, in *input) error {
	var r struct {
		Problems []struct {
			Topic  string `json:"topic"`
			Prompt string `json:"prompt"`
		} `json:"problems"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if len(r.Problems) != hwN {
		return fmt.Errorf("homework returned %d problems, want %d", len(r.Problems), hwN)
	}
	for _, p := range r.Problems {
		if p.Topic != "binary-conversion" || p.Prompt == "" {
			return fmt.Errorf("homework problem %+v", p)
		}
	}
	return nil
}

func checkSurvey(body []byte, in *input) error {
	var r struct {
		Students int               `json:"students"`
		Seed     int64             `json:"seed"`
		Stats    []json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Students != students || r.Seed != in.seed || len(r.Stats) == 0 {
		return fmt.Errorf("survey echoed students %d seed %d with %d stats, want %d and %d", r.Students, r.Seed, len(r.Stats), students, in.seed)
	}
	return nil
}

// --- direct replay ----------------------------------------------------------

// directTimes accumulates the parts of a replay that are reported apart
// from whole-request times.
type directTimes struct {
	asmSteps  int64
	asmNs     int64 // machine runs of asm requests (assemble, load, run)
	compileNs int64 // minic.Compile of mini-C requests
	compiles  int64
}

func runMachine(src string, steps int64, exit int64) (int64, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return 0, err
	}
	m, err := asm.NewMachine(prog)
	if err != nil {
		return 0, err
	}
	m.Stdin = strings.NewReader("")
	m.Stdout = io.Discard
	if steps == 0 {
		steps = 10_000_000
	}
	if err := m.Run(steps); err != nil {
		return 0, err
	}
	if int64(m.ExitStatus) != exit {
		return 0, fmt.Errorf("exit status %d, want %d", m.ExitStatus, exit)
	}
	return m.Steps, nil
}

func directAsm(src func(int64) string) func(in *input, st *directTimes) error {
	return func(in *input, st *directTimes) error {
		t0 := time.Now()
		n, err := runMachine(src(in.exit), in.steps, in.exit)
		st.asmNs += int64(time.Since(t0))
		st.asmSteps += n
		return err
	}
}

func directMinic(in *input, st *directTimes) error {
	t0 := time.Now()
	asmSrc, err := minic.Compile(minicSource(in.exit))
	st.compileNs += int64(time.Since(t0))
	st.compiles++
	if err != nil {
		return err
	}
	_, err = runMachine(asmSrc, in.steps, in.exit)
	return err
}

func directCache(in *input, _ *directTimes) error {
	c, err := cache.New(cache.Config{SizeBytes: 1024, BlockSize: 16, Assoc: 1,
		Write: cache.WriteBack, Alloc: cache.WriteAllocate, Repl: cache.LRU})
	if err != nil {
		return err
	}
	trace := make([]memhier.Access, len(in.addrs))
	for j, a := range in.addrs {
		trace[j] = memhier.Access{Addr: a, Write: in.writes[j]}
	}
	if st := c.RunTrace(trace); st.Accesses != int64(len(trace)) {
		return fmt.Errorf("cache replay counted %d accesses", st.Accesses)
	}
	return nil
}

func directVM(in *input, _ *directTimes) error {
	sys, err := vm.New(vm.Config{PageSize: 256, NumFrames: 8, TLBSize: 4, NumPages: 64})
	if err != nil {
		return err
	}
	known := map[vm.Pid]bool{}
	for j, a := range in.addrs {
		pid := vm.Pid(in.pids[j])
		if !known[pid] {
			if err := sys.AddProcess(pid); err != nil {
				return err
			}
			known[pid] = true
		}
		if sys.Current() != pid {
			if err := sys.Switch(pid); err != nil {
				return err
			}
		}
		if _, err := sys.Access(a, in.writes[j]); err != nil {
			return err
		}
	}
	return nil
}

func directHomework(in *input, _ *directTimes) error {
	probs, err := homework.Generate("binary-conversion", in.seed, hwN)
	if err == nil && len(probs) != hwN {
		err = fmt.Errorf("homework generated %d problems", len(probs))
	}
	return err
}

func directSurvey(in *input, _ *directTimes) error {
	c := survey.SyntheticCohort(in.seed, students)
	stats, err := c.Aggregate()
	if err != nil {
		return err
	}
	_ = survey.RenderFigure1(stats)
	_ = survey.CheckPaperShape(c.Topics, stats)
	return nil
}

func directLife(in *input, _ *directTimes) error {
	t := in.t
	g, err := life.NewGrid(t.rows, t.cols, life.Torus)
	if err != nil {
		return err
	}
	g.Randomize(in.seed, 0.3)
	ctx := context.Background()
	switch {
	case t.threads <= 1:
		g.Run(lifeIters)
	case t.engine == "dist":
		_, err = (&life.DistRunner{G: g, Ranks: t.threads}).RunCtx(ctx, lifeIters)
	default:
		_, err = (&life.ParallelRunner{G: g, Threads: t.threads}).RunCtx(ctx, lifeIters)
	}
	return err
}
