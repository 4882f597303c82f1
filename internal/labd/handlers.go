package labd

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"cs31/internal/asm"
	"cs31/internal/cache"
	"cs31/internal/homework"
	"cs31/internal/life"
	"cs31/internal/memhier"
	"cs31/internal/memo"
	"cs31/internal/minic"
	"cs31/internal/survey"
	"cs31/internal/sweep"
	"cs31/internal/vm"
)

// Each POST endpoint has a normalize, a key and a handler, in that order
// below. registerJSON runs normalize on the decoded request and hands the
// result to both the key and the handler, which read nothing else.
//
// normalize fills the handler's defaults, maps equivalent spellings to
// one form, and zeroes every field the request's shape ignores. It never
// rejects and never rewrites a value the handler would refuse: validation
// stays in the handler, so an invalid request keeps its error and cannot
// alias a valid one in the memo.
//
// key hashes every field of the normalized request, so two requests share
// a memo entry exactly when they normalize to the same value. It also
// reports whether the response is a deterministic function of the request
// and so may be cached.

// Request-size guardrails: the daemon serves an open classroom, so every
// dimension a request controls is bounded before anything is allocated
// for it. Products are checked by division (rows > max/cols), so no
// request can wrap one past its bound.
const (
	maxSourceBytes = 1 << 20 // asm / mini-C source
	maxTraceLen    = 1 << 20 // cache / VM trace entries, matrix-workload rows*cols
	maxGridCells   = 1 << 20 // life rows*cols
	maxCacheLines  = 1 << 16 // cache size_bytes/block_size
	maxVMFrames    = 1 << 12 // vm num_frames
	maxTLBEntries  = 1 << 10 // vm tlb_size
	maxPageEntries = 1 << 20 // vm num_pages times the trace's distinct pids
	maxTableRows   = 1 << 12 // cache table_n: all of the default 64x64 workload
	maxLifeIters   = 10_000
	maxLifeThreads = 64
	maxProblems    = 100
	maxStudents    = 10_000
)

// errBadRequest marks simulator/validation failures that map to HTTP 400.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

func badReqf(format string, args ...any) error {
	return errBadRequest{fmt.Errorf(format, args...)}
}

// runMachine executes m within maxSteps instructions, polling ctx between
// chunks so a deadline or client disconnect stops a runaway program.
func runMachine(ctx context.Context, m *asm.Machine, maxSteps int64) error {
	const chunk = 4096
	for done := int64(0); done < maxSteps; done++ {
		if done%chunk == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		if err := m.Step(); err != nil {
			if errors.Is(err, asm.ErrExited) {
				return nil
			}
			return err
		}
		if m.Exited {
			return nil
		}
	}
	return fmt.Errorf("exceeded step budget of %d", maxSteps)
}

// --- POST /v1/asm/run -------------------------------------------------

// AsmRunRequest assembles and executes an IA-32-subset program.
type AsmRunRequest struct {
	Source   string `json:"source"`
	Stdin    string `json:"stdin,omitempty"`
	MaxSteps int64  `json:"max_steps,omitempty"` // 0 = server default
}

// AsmRunResponse reports the machine's observable outcome.
type AsmRunResponse struct {
	ExitStatus int32  `json:"exit_status"`
	Stdout     string `json:"stdout"`
	Steps      int64  `json:"steps"`
}

func (s *Server) normalizeAsm(req AsmRunRequest) AsmRunRequest {
	req.MaxSteps = s.stepBudget(req.MaxSteps)
	return req
}

// stepBudget is the step budget a run gets: the request's own when it is
// positive and under the server's cap, the cap otherwise.
func (s *Server) stepBudget(maxSteps int64) int64 {
	if maxSteps > 0 && maxSteps < s.cfg.MaxSteps {
		return maxSteps
	}
	return s.cfg.MaxSteps
}

func asmKey(req AsmRunRequest) (uint64, bool) {
	k := memo.NewKey(saltFor("asm"))
	k.Str("source", req.Source)
	k.Str("stdin", req.Stdin)
	k.Int("max_steps", req.MaxSteps)
	return k.Sum(), true
}

func (s *Server) asmRun(ctx context.Context, req AsmRunRequest) (AsmRunResponse, error) {
	var resp AsmRunResponse
	if req.Source == "" {
		return resp, badReqf("source is required")
	}
	if len(req.Source) > maxSourceBytes {
		return resp, badReqf("source exceeds %d bytes", maxSourceBytes)
	}
	prog, err := asm.Assemble(req.Source)
	if err != nil {
		return resp, errBadRequest{err}
	}
	m, err := asm.NewMachine(prog)
	if err != nil {
		return resp, errBadRequest{err}
	}
	var out strings.Builder
	m.Stdin = strings.NewReader(req.Stdin)
	m.Stdout = &out
	if err := runMachine(ctx, m, req.MaxSteps); err != nil {
		if ctx.Err() != nil {
			return resp, ctx.Err()
		}
		return resp, errBadRequest{err}
	}
	resp.ExitStatus = m.ExitStatus
	resp.Stdout = out.String()
	resp.Steps = m.Steps
	return resp, nil
}

// --- POST /v1/minic/compile -------------------------------------------

// MinicCompileRequest compiles mini-C source; with Run set it also
// executes the program.
type MinicCompileRequest struct {
	Source   string `json:"source"`
	Run      bool   `json:"run,omitempty"`
	Stdin    string `json:"stdin,omitempty"`
	MaxSteps int64  `json:"max_steps,omitempty"`
}

// MinicCompileResponse carries the generated assembly and, when requested,
// the execution result.
type MinicCompileResponse struct {
	Assembly   string `json:"assembly"`
	ExitStatus *int32 `json:"exit_status,omitempty"`
	Stdout     string `json:"stdout,omitempty"`
	Steps      int64  `json:"steps,omitempty"`
}

func (s *Server) normalizeMinic(req MinicCompileRequest) MinicCompileRequest {
	if !req.Run {
		// Stdin and the step budget only shape a program that runs.
		req.Stdin, req.MaxSteps = "", 0
		return req
	}
	req.MaxSteps = s.stepBudget(req.MaxSteps)
	return req
}

func minicKey(req MinicCompileRequest) (uint64, bool) {
	k := memo.NewKey(saltFor("minic"))
	k.Str("source", req.Source)
	k.Bool("run", req.Run)
	k.Str("stdin", req.Stdin)
	k.Int("max_steps", req.MaxSteps)
	return k.Sum(), true
}

func (s *Server) minicCompile(ctx context.Context, req MinicCompileRequest) (MinicCompileResponse, error) {
	var resp MinicCompileResponse
	if req.Source == "" {
		return resp, badReqf("source is required")
	}
	if len(req.Source) > maxSourceBytes {
		return resp, badReqf("source exceeds %d bytes", maxSourceBytes)
	}
	asmSrc, err := minic.Compile(req.Source)
	if err != nil {
		return resp, errBadRequest{err}
	}
	resp.Assembly = asmSrc
	if req.Run {
		run, err := s.asmRun(ctx, AsmRunRequest{
			Source: asmSrc, Stdin: req.Stdin, MaxSteps: req.MaxSteps,
		})
		if err != nil {
			return resp, err
		}
		resp.ExitStatus = &run.ExitStatus
		resp.Stdout = run.Stdout
		resp.Steps = run.Steps
	}
	return resp, nil
}

// --- POST /v1/cache/sim -----------------------------------------------

// TraceAccess is one memory access of a cache trace.
type TraceAccess struct {
	Addr  uint64 `json:"addr"`
	Write bool   `json:"write,omitempty"`
}

// CacheSimRequest replays a trace (explicit or a built-in matrix
// workload) through a configured cache.
type CacheSimRequest struct {
	SizeBytes int    `json:"size_bytes,omitempty"` // default 1024
	BlockSize int    `json:"block_size,omitempty"` // default 16
	Assoc     int    `json:"assoc,omitempty"`      // default 1
	Write     string `json:"write,omitempty"`      // back|through
	Alloc     string `json:"alloc,omitempty"`      // allocate|noallocate
	Repl      string `json:"repl,omitempty"`       // lru|fifo

	Trace    []TraceAccess `json:"trace,omitempty"`
	Workload string        `json:"workload,omitempty"` // rowmajor|colmajor
	Rows     int           `json:"rows,omitempty"`
	Cols     int           `json:"cols,omitempty"`

	TableN int `json:"table_n,omitempty"` // include the first-N access table
}

// CacheSimResponse reports organization and replay statistics.
type CacheSimResponse struct {
	NumSets    int         `json:"num_sets"`
	TagBits    int         `json:"tag_bits"`
	IndexBits  int         `json:"index_bits"`
	OffsetBits int         `json:"offset_bits"`
	Stats      cache.Stats `json:"stats"`
	HitRate    float64     `json:"hit_rate"`
	Table      string      `json:"table,omitempty"`
}

func (*Server) normalizeCache(req CacheSimRequest) CacheSimRequest {
	req.SizeBytes = cmp.Or(req.SizeBytes, 1024)
	req.BlockSize = cmp.Or(req.BlockSize, 16)
	req.Assoc = cmp.Or(req.Assoc, 1)
	req.Write = cmp.Or(req.Write, "back")
	req.Alloc = cmp.Or(req.Alloc, "allocate")
	req.Repl = cmp.Or(req.Repl, "lru")
	if req.Workload == "" {
		// An explicit trace: the matrix shape is unused.
		req.Rows, req.Cols = 0, 0
	} else {
		// A built-in workload: the trace is unused.
		req.Trace = nil
		req.Rows = cmp.Or(req.Rows, 64)
		req.Cols = cmp.Or(req.Cols, 64)
	}
	return req
}

func cacheSimKey(req CacheSimRequest) (uint64, bool) {
	k := memo.NewKey(saltFor("cache"))
	k.Int("size_bytes", int64(req.SizeBytes))
	k.Int("block_size", int64(req.BlockSize))
	k.Int("assoc", int64(req.Assoc))
	k.Str("write", req.Write)
	k.Str("alloc", req.Alloc)
	k.Str("repl", req.Repl)
	k.Int("trace", int64(len(req.Trace)))
	for _, a := range req.Trace {
		k.Elem(a.Addr)
		k.Elem(boolWord(a.Write))
	}
	k.Str("workload", req.Workload)
	k.Int("rows", int64(req.Rows))
	k.Int("cols", int64(req.Cols))
	k.Int("table_n", int64(req.TableN))
	return k.Sum(), true
}

func (s *Server) cacheSim(_ context.Context, req CacheSimRequest) (CacheSimResponse, error) {
	var resp CacheSimResponse
	cfg := cache.Config{SizeBytes: req.SizeBytes, BlockSize: req.BlockSize, Assoc: req.Assoc}
	var err error
	cfg.Write, cfg.Alloc, cfg.Repl, err = cache.ParsePolicies(req.Write, req.Alloc, req.Repl)
	if err != nil {
		return resp, errBadRequest{err}
	}

	// Sizes cache.Validate rejects anyway (non-positive, or a block*assoc
	// that does not divide the size) keep its message; these two would
	// allocate past the bound or wrap block*assoc around to zero first.
	// table_n sizes the rendered access table, one row per access.
	if cfg.SizeBytes > 0 && cfg.BlockSize > 0 && cfg.SizeBytes/cfg.BlockSize > maxCacheLines {
		return resp, badReqf("cache of %d lines exceeds %d (size_bytes/block_size)", cfg.SizeBytes/cfg.BlockSize, maxCacheLines)
	}
	if cfg.BlockSize > 0 && cfg.Assoc > 0 && cfg.BlockSize > math.MaxInt/cfg.Assoc {
		return resp, badReqf("block_size %d times assoc %d overflows", cfg.BlockSize, cfg.Assoc)
	}
	if req.TableN > maxTableRows {
		return resp, badReqf("table_n %d exceeds %d", req.TableN, maxTableRows)
	}

	trace, err := buildTrace(req)
	if err != nil {
		return resp, err
	}

	c, err := cache.New(cfg)
	if err != nil {
		return resp, errBadRequest{err}
	}
	if req.TableN > 0 {
		table, err := cache.TraceTable(cfg, trace, req.TableN)
		if err != nil {
			return resp, errBadRequest{err}
		}
		resp.Table = table
	}
	resp.Stats = c.RunTrace(trace)
	resp.HitRate = resp.Stats.HitRate()
	resp.NumSets = cfg.NumSets()
	resp.IndexBits = cfg.IndexBits()
	resp.OffsetBits = cfg.OffsetBits()
	resp.TagBits = 32 - resp.IndexBits - resp.OffsetBits
	return resp, nil
}

func buildTrace(req CacheSimRequest) ([]memhier.Access, error) {
	switch req.Workload {
	case "":
		if len(req.Trace) == 0 {
			return nil, badReqf("provide a trace or a workload")
		}
		if len(req.Trace) > maxTraceLen {
			return nil, badReqf("trace exceeds %d accesses", maxTraceLen)
		}
		trace := make([]memhier.Access, len(req.Trace))
		for i, a := range req.Trace {
			trace[i] = memhier.Access{Addr: a.Addr, Write: a.Write}
		}
		return trace, nil
	case "rowmajor", "colmajor":
		if req.Rows < 1 || req.Cols < 1 || req.Rows > maxTraceLen/req.Cols {
			return nil, badReqf("matrix %dx%d out of range", req.Rows, req.Cols)
		}
		if req.Workload == "rowmajor" {
			return memhier.MatrixTraceRowMajor(0, req.Rows, req.Cols, 4), nil
		}
		return memhier.MatrixTraceColMajor(0, req.Rows, req.Cols, 4), nil
	default:
		return nil, badReqf("unknown workload %q", req.Workload)
	}
}

// --- POST /v1/vm/sim --------------------------------------------------

// VMAccess is one per-process virtual access of a VM trace.
type VMAccess struct {
	Pid   int    `json:"pid"`
	Addr  uint64 `json:"addr"`
	Write bool   `json:"write,omitempty"`
}

// VMSimRequest replays a multi-process trace through the VM simulator.
type VMSimRequest struct {
	PageSize  uint64     `json:"page_size,omitempty"`  // default 256
	NumFrames int        `json:"num_frames,omitempty"` // default 8
	TLBSize   int        `json:"tlb_size,omitempty"`   // default 4
	NumPages  uint64     `json:"num_pages,omitempty"`  // default 64
	Trace     []VMAccess `json:"trace"`
}

// VMSimResponse reports translation statistics and the cost model.
type VMSimResponse struct {
	Stats             vm.Stats `json:"stats"`
	FaultRate         float64  `json:"fault_rate"`
	TLBHitRate        float64  `json:"tlb_hit_rate"`
	ContextSwitches   int64    `json:"context_switches"`
	EffectiveAccessNs float64  `json:"effective_access_ns"` // RAM 100ns, fault 8ms
}

func (*Server) normalizeVM(req VMSimRequest) VMSimRequest {
	req.PageSize = cmp.Or(req.PageSize, 256)
	req.NumFrames = cmp.Or(req.NumFrames, 8)
	req.TLBSize = cmp.Or(req.TLBSize, 4)
	req.NumPages = cmp.Or(req.NumPages, 64)
	return req
}

func vmSimKey(req VMSimRequest) (uint64, bool) {
	k := memo.NewKey(saltFor("vm"))
	k.Uint("page_size", req.PageSize)
	k.Int("num_frames", int64(req.NumFrames))
	k.Int("tlb_size", int64(req.TLBSize))
	k.Uint("num_pages", req.NumPages)
	k.Int("trace", int64(len(req.Trace)))
	for _, a := range req.Trace {
		k.Elem(uint64(a.Pid))
		k.Elem(a.Addr)
		k.Elem(boolWord(a.Write))
	}
	return k.Sum(), true
}

func (s *Server) vmSim(_ context.Context, req VMSimRequest) (VMSimResponse, error) {
	var resp VMSimResponse
	cfg := vm.Config{
		PageSize: req.PageSize, NumFrames: req.NumFrames,
		TLBSize: req.TLBSize, NumPages: req.NumPages,
	}
	if len(req.Trace) == 0 {
		return resp, badReqf("trace is required")
	}
	if len(req.Trace) > maxTraceLen {
		return resp, badReqf("trace exceeds %d accesses", maxTraceLen)
	}
	if cfg.NumFrames > maxVMFrames {
		return resp, badReqf("num_frames %d exceeds %d", cfg.NumFrames, maxVMFrames)
	}
	if cfg.TLBSize > maxTLBEntries {
		return resp, badReqf("tlb_size %d exceeds %d", cfg.TLBSize, maxTLBEntries)
	}
	sys, err := vm.New(cfg)
	if err != nil {
		return resp, errBadRequest{err}
	}
	known := map[vm.Pid]bool{}
	for i, a := range req.Trace {
		pid := vm.Pid(a.Pid)
		if !known[pid] {
			// Each process gets a num_pages page table.
			if procs := uint64(len(known) + 1); procs > maxPageEntries/cfg.NumPages {
				return resp, badReqf("access %d: %d processes of %d pages exceed %d page-table entries", i, procs, cfg.NumPages, maxPageEntries)
			}
			if err := sys.AddProcess(pid); err != nil {
				return resp, badReqf("access %d: %v", i, err)
			}
			known[pid] = true
		}
		if sys.Current() != pid {
			if err := sys.Switch(pid); err != nil {
				return resp, badReqf("access %d: %v", i, err)
			}
		}
		if _, err := sys.Access(a.Addr, a.Write); err != nil {
			return resp, badReqf("access %d: %v", i, err)
		}
	}
	resp.Stats = sys.Stats()
	resp.FaultRate = resp.Stats.FaultRate()
	resp.TLBHitRate = resp.Stats.TLBHitRate()
	resp.ContextSwitches = int64(sys.ContextSwitches)
	resp.EffectiveAccessNs = sys.EffectiveAccessTime(100, 8_000_000)
	return resp, nil
}

// --- POST /v1/life/run ------------------------------------------------

// LifeRunRequest advances a random Game of Life grid, serially or on a
// worker pool, optionally measuring the Lab 10 speedup table. Engine
// "dist" runs the message-passing DistRunner (Threads become ranks), so
// the speedup table measures rank scaling with halo-exchange costs in.
// Every engine advances the bit-packed board, so Packed is accepted for
// compatibility with older clients and ignored: it changes neither the
// response nor the cache key.
type LifeRunRequest struct {
	Rows      int     `json:"rows,omitempty"`      // default 32
	Cols      int     `json:"cols,omitempty"`      // default 32
	Iters     int     `json:"iters,omitempty"`     // default 20
	Seed      int64   `json:"seed,omitempty"`      // default 31
	Density   float64 `json:"density,omitempty"`   // default 0.3
	Threads   int     `json:"threads,omitempty"`   // <=1 runs the serial engine
	Partition string  `json:"partition,omitempty"` // rows|cols
	Engine    string  `json:"engine,omitempty"`    // parallel (default) | dist
	Packed    bool    `json:"packed,omitempty"`    // accepted and ignored; every board is bit-packed
	Speedup   bool    `json:"speedup,omitempty"`   // measure 1..Threads scaling
}

// LifeScalingPoint is one row of the speedup report.
type LifeScalingPoint struct {
	Threads    int     `json:"threads"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// LifeRunResponse reports the final generation and, when measured, the
// scaling table.
type LifeRunResponse struct {
	Rows        int                `json:"rows"`
	Cols        int                `json:"cols"`
	Generations int                `json:"generations"`
	Population  int                `json:"population"`
	LiveUpdates int64              `json:"live_updates,omitempty"`
	Scaling     []LifeScalingPoint `json:"scaling,omitempty"`
}

func (*Server) normalizeLife(req LifeRunRequest) LifeRunRequest {
	req.Rows = cmp.Or(req.Rows, 32)
	req.Cols = cmp.Or(req.Cols, 32)
	req.Iters = cmp.Or(req.Iters, 20)
	req.Seed = cmp.Or(req.Seed, 31)
	req.Density = cmp.Or(req.Density, 0.3)
	req.Partition = cmp.Or(req.Partition, "rows")
	req.Engine = cmp.Or(req.Engine, "parallel")
	req.Packed = false
	if req.Threads <= 1 {
		// Every count up to one runs the serial engine, and one thread
		// has no scaling to measure.
		req.Threads, req.Speedup = 1, false
	}
	return req
}

func lifeKey(req LifeRunRequest) (uint64, bool) {
	k := memo.NewKey(saltFor("life"))
	k.Int("rows", int64(req.Rows))
	k.Int("cols", int64(req.Cols))
	k.Int("iters", int64(req.Iters))
	k.Int("seed", req.Seed)
	k.Float("density", req.Density)
	k.Int("threads", int64(req.Threads))
	k.Str("partition", req.Partition)
	k.Str("engine", req.Engine)
	k.Bool("packed", req.Packed)
	k.Bool("speedup", req.Speedup)
	// A scaling table holds wall-clock timings: not a deterministic
	// function of the request.
	return k.Sum(), !req.Speedup
}

func (s *Server) lifeRun(ctx context.Context, req LifeRunRequest) (LifeRunResponse, error) {
	var resp LifeRunResponse
	if req.Rows < 1 || req.Cols < 1 || req.Rows > maxGridCells/req.Cols {
		return resp, badReqf("grid %dx%d out of range (max %d cells)", req.Rows, req.Cols, maxGridCells)
	}
	if req.Iters < 1 || req.Iters > maxLifeIters {
		return resp, badReqf("iters %d out of range [1,%d]", req.Iters, maxLifeIters)
	}
	if req.Threads > maxLifeThreads {
		return resp, badReqf("threads %d exceeds max %d", req.Threads, maxLifeThreads)
	}
	if req.Density < 0 || req.Density > 1 {
		return resp, badReqf("density %v outside [0,1]", req.Density)
	}
	part := life.ByRows
	switch req.Partition {
	case "rows":
	case "cols":
		part = life.ByCols
	default:
		return resp, badReqf("unknown partition %q", req.Partition)
	}
	var dist bool
	switch req.Engine {
	case "parallel":
	case "dist":
		if part != life.ByRows {
			return resp, badReqf("dist engine shards by rows only")
		}
		dist = true
	default:
		return resp, badReqf("unknown engine %q", req.Engine)
	}

	g, err := life.NewGrid(req.Rows, req.Cols, life.Torus)
	if err != nil {
		return resp, errBadRequest{err}
	}
	g.Randomize(req.Seed, req.Density)

	if req.Speedup {
		counts := []int{1}
		for t := 2; t < req.Threads; t *= 2 {
			counts = append(counts, t)
		}
		counts = append(counts, req.Threads)
		template := g.Clone()
		// The timed series runs through the sweep engine, which sequences
		// the points (overlapping measurements would contend) and polls ctx
		// between them, so a canceled request stops mid-series.
		points, err := sweep.MeasureScaling(ctx, counts, func(ctx context.Context, threads int) error {
			_, err := life.Advance(ctx, template.Clone(), life.Engine{Workers: threads, Partition: part, Dist: dist}, req.Iters)
			return err
		})
		if err != nil {
			if ctx.Err() != nil {
				return resp, ctx.Err()
			}
			return resp, errBadRequest{err}
		}
		for _, p := range points {
			resp.Scaling = append(resp.Scaling, LifeScalingPoint{
				Threads:    p.Threads,
				ElapsedMs:  float64(p.Elapsed) / float64(time.Millisecond),
				Speedup:    p.Speedup,
				Efficiency: p.Efficiency,
			})
		}
	}

	// A timed-out or canceled request stops the run: the parallel and dist
	// engines join every worker and rank goroutine before Advance returns,
	// and the serial engine stops at its next ctx poll.
	st, err := life.Advance(ctx, g, life.Engine{Workers: req.Threads, Partition: part, Dist: dist}, req.Iters)
	if err != nil {
		if ctx.Err() != nil {
			return resp, ctx.Err()
		}
		return resp, errBadRequest{err}
	}
	if req.Threads > 1 {
		// Serial bodies omit live_updates: they are pinned byte for byte,
		// and key version 3 caches them.
		resp.LiveUpdates = st.LiveUpdates
	}
	resp.Rows, resp.Cols = req.Rows, req.Cols
	resp.Generations = g.Generation
	resp.Population = g.Population()
	return resp, nil
}

// --- GET /v1/homework -------------------------------------------------

// HomeworkProblem is one generated problem with its computed answer key.
type HomeworkProblem struct {
	Topic    string `json:"topic"`
	Prompt   string `json:"prompt"`
	Solution string `json:"solution,omitempty"`
}

// HomeworkResponse lists topics (no topic given) or generated problems.
type HomeworkResponse struct {
	Topics   []string          `json:"topics,omitempty"`
	Problems []HomeworkProblem `json:"problems,omitempty"`
}

// homeworkKey hashes the parsed query. For the topic listing (no topic)
// the query parse zeroes the other parameters, which it ignores.
func homeworkKey(topic string, seed int64, n int, answers bool) uint64 {
	k := memo.NewKey(saltFor("homework"))
	k.Str("topic", topic)
	k.Int("seed", seed)
	k.Int("n", int64(n))
	k.Bool("answers", answers)
	return k.Sum()
}

func (s *Server) homeworkGen(_ context.Context, topic string, seed int64, n int, answers bool) (HomeworkResponse, error) {
	var resp HomeworkResponse
	if topic == "" {
		resp.Topics = homework.Topics()
		return resp, nil
	}
	if n < 1 || n > maxProblems {
		return resp, badReqf("n %d out of range [1,%d]", n, maxProblems)
	}
	probs, err := homework.Generate(topic, seed, n)
	if err != nil {
		return resp, errBadRequest{err}
	}
	for _, p := range probs {
		hp := HomeworkProblem{Topic: p.Topic, Prompt: p.Prompt}
		if answers {
			hp.Solution = p.Solution
		}
		resp.Problems = append(resp.Problems, hp)
	}
	return resp, nil
}

// --- GET /v1/survey/figure1 -------------------------------------------

// SurveyFigureResponse reproduces Figure 1 for a synthetic cohort.
type SurveyFigureResponse struct {
	Students      int                `json:"students"`
	Seed          int64              `json:"seed"`
	Stats         []survey.TopicStat `json:"stats"`
	Figure        string             `json:"figure"`
	ShapeProblems []string           `json:"shape_problems,omitempty"`
}

func surveyKey(seed int64, students int) uint64 {
	k := memo.NewKey(saltFor("survey"))
	k.Int("seed", seed)
	k.Int("students", int64(students))
	return k.Sum()
}

func (s *Server) surveyFigure1(_ context.Context, seed int64, students int) (SurveyFigureResponse, error) {
	var resp SurveyFigureResponse
	if students < 1 || students > maxStudents {
		return resp, badReqf("students %d out of range [1,%d]", students, maxStudents)
	}
	cohort := survey.SyntheticCohort(seed, students)
	stats, err := cohort.Aggregate()
	if err != nil {
		return resp, errBadRequest{err}
	}
	resp.Students = students
	resp.Seed = seed
	resp.Stats = stats
	resp.Figure = survey.RenderFigure1(stats)
	resp.ShapeProblems = survey.CheckPaperShape(cohort.Topics, stats)
	return resp, nil
}
