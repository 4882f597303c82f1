package labd

import "cs31/internal/memo"

// Canonical request keys. Every deterministic endpoint hashes its request
// into a 64-bit memo key via a canonical encoding: fields in a fixed
// order, defaults normalized to exactly the values the handler would fill
// in, and nothing more normalized than that — a field the handler still
// validates (an engine name, a partition) stays in the key verbatim, so a
// request that would be rejected can never alias one that succeeds.
//
// Each key space is salted with the endpoint name and cacheKeyVersion.
// Bump the version whenever any simulator kernel changes observable
// output or a key's field set changes; old entries then miss by
// construction instead of serving stale bytes.
const cacheKeyVersion = "2"

func saltFor(endpoint string) string {
	return "labd/" + endpoint + "/" + cacheKeyVersion
}

// Each keyFn returns (key, cacheable). Requests whose responses are not
// deterministic functions of the request report cacheable=false and are
// served on the uncached path. Invalid requests may still produce keys:
// they compute to errors, and errors are never cached.

func asmKey(s *Server, req AsmRunRequest) (uint64, bool) {
	steps := s.cfg.MaxSteps
	if req.MaxSteps > 0 && req.MaxSteps < steps {
		steps = req.MaxSteps
	}
	k := memo.NewKey(saltFor("asm"))
	k.Str("source", req.Source)
	k.Str("stdin", req.Stdin)
	k.Int("steps", steps)
	return k.Sum(), true
}

func minicKey(s *Server, req MinicCompileRequest) (uint64, bool) {
	k := memo.NewKey(saltFor("minic"))
	k.Str("source", req.Source)
	k.Bool("run", req.Run)
	if req.Run {
		// Stdin and the step budget only shape the response when the
		// program actually executes.
		steps := s.cfg.MaxSteps
		if req.MaxSteps > 0 && req.MaxSteps < steps {
			steps = req.MaxSteps
		}
		k.Str("stdin", req.Stdin)
		k.Int("steps", steps)
	}
	return k.Sum(), true
}

func cacheSimKey(_ *Server, req CacheSimRequest) (uint64, bool) {
	size, block, assoc := req.SizeBytes, req.BlockSize, req.Assoc
	if size == 0 {
		size = 1024
	}
	if block == 0 {
		block = 16
	}
	if assoc == 0 {
		assoc = 1
	}
	write, alloc, repl := req.Write, req.Alloc, req.Repl
	if write == "" {
		write = "back"
	}
	if alloc == "" {
		alloc = "allocate"
	}
	if repl == "" {
		repl = "lru"
	}
	k := memo.NewKey(saltFor("cache"))
	k.Int("size", int64(size))
	k.Int("block", int64(block))
	k.Int("assoc", int64(assoc))
	k.Str("write", write)
	k.Str("alloc", alloc)
	k.Str("repl", repl)
	k.Str("workload", req.Workload)
	if req.Workload == "" {
		// Explicit trace: rows/cols are ignored by the handler, so they
		// stay out of the key.
		k.Int("trace", int64(len(req.Trace)))
		for _, a := range req.Trace {
			k.Elem(a.Addr)
			k.Elem(boolWord(a.Write))
		}
	} else {
		// Built-in workload: the trace field is ignored by the handler.
		rows, cols := req.Rows, req.Cols
		if rows == 0 {
			rows = 64
		}
		if cols == 0 {
			cols = 64
		}
		k.Int("rows", int64(rows))
		k.Int("cols", int64(cols))
	}
	k.Int("table_n", int64(req.TableN))
	return k.Sum(), true
}

func vmSimKey(_ *Server, req VMSimRequest) (uint64, bool) {
	page, frames, tlb, pages := req.PageSize, req.NumFrames, req.TLBSize, req.NumPages
	if page == 0 {
		page = 256
	}
	if frames == 0 {
		frames = 8
	}
	if tlb == 0 {
		tlb = 4
	}
	if pages == 0 {
		pages = 64
	}
	k := memo.NewKey(saltFor("vm"))
	k.Uint("page_size", page)
	k.Int("frames", int64(frames))
	k.Int("tlb", int64(tlb))
	k.Uint("pages", pages)
	k.Int("trace", int64(len(req.Trace)))
	for _, a := range req.Trace {
		k.Elem(uint64(a.Pid))
		k.Elem(a.Addr)
		k.Elem(boolWord(a.Write))
	}
	return k.Sum(), true
}

func lifeKey(_ *Server, req LifeRunRequest) (uint64, bool) {
	threads := req.Threads
	if threads < 1 {
		// threads 0 and negatives all select the serial engine, exactly
		// like threads 1.
		threads = 1
	}
	if req.Speedup && threads > 1 {
		// The scaling table contains wall-clock timings: not a
		// deterministic function of the request.
		return 0, false
	}
	rows, cols, iters := req.Rows, req.Cols, req.Iters
	if rows == 0 {
		rows = 32
	}
	if cols == 0 {
		cols = 32
	}
	if iters == 0 {
		iters = 20
	}
	seed := req.Seed
	if seed == 0 {
		seed = 31
	}
	density := req.Density
	if density == 0 {
		density = 0.3
	}
	k := memo.NewKey(saltFor("life"))
	k.Int("rows", int64(rows))
	k.Int("cols", int64(cols))
	k.Int("iters", int64(iters))
	k.Int("seed", seed)
	k.Float("density", density)
	k.Int("threads", int64(threads))
	k.Str("partition", req.Partition)
	k.Str("engine", req.Engine)
	// req.Packed is accepted and ignored: every board is packed.
	return k.Sum(), true
}

func homeworkKey(topic string, seed int64, n int, answers bool) uint64 {
	k := memo.NewKey(saltFor("homework"))
	k.Str("topic", topic)
	if topic != "" {
		// The topic listing ignores every other parameter.
		k.Int("seed", seed)
		k.Int("n", int64(n))
		k.Bool("answers", answers)
	}
	return k.Sum()
}

func surveyKey(seed int64, students int) uint64 {
	k := memo.NewKey(saltFor("survey"))
	k.Int("seed", seed)
	k.Int("students", int64(students))
	return k.Sum()
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
