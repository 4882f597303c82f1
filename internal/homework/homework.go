// Package homework generates the course's weekly written homework
// problems (paper §III-B) with worked solutions. Every solution is
// computed by the corresponding simulator — numrep for conversions and
// arithmetic, circuit for logic tracing, asm for assembly tracing, cache
// for address division and hit/miss tables, vm for page-table walks, and
// kernel for "possible outputs" fork questions — so the generated answer
// keys are correct by construction. Generation is deterministic per seed.
package homework

import (
	"fmt"
	"math/rand"
	"strings"

	"cs31/internal/asm"
	"cs31/internal/cache"
	"cs31/internal/circuit"
	"cs31/internal/kernel"
	"cs31/internal/memhier"
	"cs31/internal/numrep"
	"cs31/internal/vm"
)

// Problem is one homework question with its answer key.
type Problem struct {
	Topic    string
	Prompt   string
	Solution string
}

func (p Problem) String() string {
	return fmt.Sprintf("[%s]\n%s\n--- solution ---\n%s", p.Topic, p.Prompt, p.Solution)
}

// Generator produces problems for one homework topic.
type Generator func(rng *rand.Rand) (Problem, error)

// Generators is the catalog, keyed by the homework names of §III-B.
var Generators = map[string]Generator{
	"binary-conversion": ConversionProblem,
	"binary-arithmetic": ArithmeticProblem,
	"circuits":          CircuitProblem,
	"assembly-trace":    AssemblyTraceProblem,
	"cache-division":    CacheDivisionProblem,
	"cache-trace":       CacheTraceProblem,
	"processes":         ProcessOutputsProblem,
	"virtual-memory":    PageTableProblem,
}

// Topics lists the available topics in a stable order.
func Topics() []string {
	return []string{
		"binary-conversion", "binary-arithmetic", "circuits",
		"assembly-trace", "cache-division", "cache-trace",
		"processes", "virtual-memory",
	}
}

// MaxProblems is the most problems one Generate call produces: a week's
// homework many times over. The bound comes before the result slice is
// reserved, so no n asks for more memory than MaxProblems problems take.
const MaxProblems = 100

// Generate produces n problems for the topic, deterministically per seed.
// n must be in [1, MaxProblems].
func Generate(topic string, seed int64, n int) ([]Problem, error) {
	gen, ok := Generators[topic]
	if !ok {
		return nil, fmt.Errorf("homework: unknown topic %q (have %v)", topic, Topics())
	}
	if n < 1 || n > MaxProblems {
		return nil, fmt.Errorf("homework: %d problems out of range [1,%d]", n, MaxProblems)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Problem, 0, n)
	for i := 0; i < n; i++ {
		p, err := gen(rng)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ConversionProblem: convert a value between decimal, binary, and hex at a
// fixed width, with the powers-of-two working shown.
func ConversionProblem(rng *rand.Rand) (Problem, error) {
	widths := []int{8, 12, 16}
	width := widths[rng.Intn(len(widths))]
	v := uint64(rng.Intn(1 << uint(width)))
	conv, err := numrep.Convert(v, width)
	if err != nil {
		return Problem{}, err
	}
	var sol strings.Builder
	fmt.Fprintf(&sol, "%s\n", conv)
	fmt.Fprintf(&sol, "working: %s\n", numrep.PowersOfTwoTable(v, width))
	sol.WriteString("decimal -> binary by repeated division:\n")
	for _, step := range numrep.RepeatedDivision(v, numrep.Binary) {
		sol.WriteString("  " + step + "\n")
	}
	return Problem{
		Topic: "binary-conversion",
		Prompt: fmt.Sprintf(
			"Convert %d to %d-bit binary and hexadecimal, and give its value\n"+
				"when the same bit pattern is interpreted as a signed (two's\n"+
				"complement) number.", v, width),
		Solution: sol.String(),
	}, nil
}

// ArithmeticProblem: add two signed values at a narrow width and report
// the result, carry, and overflow — the flag-reasoning drill.
func ArithmeticProblem(rng *rand.Rand) (Problem, error) {
	const width = 8
	a := uint64(rng.Intn(256))
	b := uint64(rng.Intn(256))
	res, err := numrep.Add(a, b, width)
	if err != nil {
		return Problem{}, err
	}
	sa, _ := numrep.DecodeSigned(a, width)
	sb, _ := numrep.DecodeSigned(b, width)
	return Problem{
		Topic: "binary-arithmetic",
		Prompt: fmt.Sprintf(
			"Compute %s + %s at 8 bits. Give the result bits, and state\n"+
				"whether unsigned overflow (carry out) and signed overflow occur.\n"+
				"(Unsigned values %d + %d; signed values %d + %d.)",
			numrep.FormatBits(a, width), numrep.FormatBits(b, width), a, b, sa, sb),
		Solution: fmt.Sprintf(
			"result %s = %s\nunsigned: %d (carry out: %v)\nsigned: %d (overflow: %v)",
			numrep.FormatBits(res.Pattern, width), numrep.FormatHex(res.Pattern, width),
			res.Unsigned, res.CarryOut, res.Signed, res.Overflow),
	}, nil
}

// CircuitProblem: derive the truth table of a randomly synthesized
// three-input circuit — the "trace the circuit" direction.
func CircuitProblem(rng *rand.Rand) (Problem, error) {
	spec := uint8(rng.Intn(255) + 1) // avoid the all-false circuit
	rows := make([]bool, 8)
	var minterms []string
	for i := range rows {
		rows[i] = spec&(1<<uint(i)) != 0
		if rows[i] {
			minterms = append(minterms, fmt.Sprintf("m%d", i))
		}
	}
	c := circuit.New()
	if _, _, err := circuit.SynthesizeSoP(c, 3, rows); err != nil {
		return Problem{}, err
	}
	tt, err := c.BuildTruthTable([]string{"in0", "in1", "in2"}, []string{"out"})
	if err != nil {
		return Problem{}, err
	}
	return Problem{
		Topic: "circuits",
		Prompt: fmt.Sprintf(
			"A sum-of-products circuit over inputs in0 in1 in2 implements the\n"+
				"minterms %s (%d gates). Fill in its full truth table.",
			strings.Join(minterms, ", "), c.NumGates()),
		Solution: tt.String(),
	}, nil
}

// AssemblyTraceProblem: trace a short straight-line IA-32 snippet and give
// the final registers — solved by running the machine.
func AssemblyTraceProblem(rng *rand.Rand) (Problem, error) {
	regs := []string{"%eax", "%ebx", "%ecx"}
	var src strings.Builder
	src.WriteString("main:\n")
	for i, r := range regs {
		fmt.Fprintf(&src, "    movl $%d, %s\n", rng.Intn(20)+1, r)
		_ = i
	}
	binOps := []string{"addl", "subl", "imull", "andl", "orl", "xorl"}
	for i := 0; i < 4; i++ {
		op := binOps[rng.Intn(len(binOps))]
		a := regs[rng.Intn(len(regs))]
		bReg := regs[rng.Intn(len(regs))]
		fmt.Fprintf(&src, "    %s %s, %s\n", op, a, bReg)
	}
	src.WriteString("    ret\n")

	prog, err := asm.Assemble(src.String())
	if err != nil {
		return Problem{}, err
	}
	m, err := asm.NewMachine(prog)
	if err != nil {
		return Problem{}, err
	}
	if err := m.Run(100); err != nil {
		return Problem{}, err
	}
	sol := fmt.Sprintf("eax = %d, ebx = %d, ecx = %d\nflags: ZF=%v SF=%v CF=%v OF=%v",
		int32(m.Regs[asm.EAX]), int32(m.Regs[asm.EBX]), int32(m.Regs[asm.ECX]),
		m.Flags.ZF, m.Flags.SF, m.Flags.CF, m.Flags.OF)
	return Problem{
		Topic: "assembly-trace",
		Prompt: "Trace this IA-32 snippet and give the final values of eax, ebx,\n" +
			"and ecx (as signed numbers) and the condition flags:\n\n" + src.String(),
		Solution: sol,
	}, nil
}

// CacheDivisionProblem: divide addresses into tag/index/offset for a random
// cache organization.
func CacheDivisionProblem(rng *rand.Rand) (Problem, error) {
	blockSizes := []int{8, 16, 32, 64}
	cfg := cache.Config{
		BlockSize: blockSizes[rng.Intn(len(blockSizes))],
		Assoc:     1 << uint(rng.Intn(3)),
	}
	cfg.SizeBytes = cfg.BlockSize * cfg.Assoc * (1 << uint(rng.Intn(4)+2))
	if err := cfg.Validate(); err != nil {
		return Problem{}, err
	}
	addr := uint64(rng.Intn(1 << 16))
	p := cfg.Split(addr)
	return Problem{
		Topic: "cache-division",
		Prompt: fmt.Sprintf(
			"A %d-byte, %d-way cache has %d-byte blocks (%d sets).\n"+
				"Divide the address %#x into tag, index, and offset, and give\n"+
				"the field widths.",
			cfg.SizeBytes, cfg.Assoc, cfg.BlockSize, cfg.NumSets(), addr),
		Solution: fmt.Sprintf(
			"offset %d bits = %#x, index %d bits = %#x, tag = %#x",
			cfg.OffsetBits(), p.Offset, cfg.IndexBits(), p.Index, p.Tag),
	}, nil
}

// CacheTraceProblem: classify a short access sequence as hits and misses —
// solved by the simulator's TraceTable.
func CacheTraceProblem(rng *rand.Rand) (Problem, error) {
	cfg := cache.Config{SizeBytes: 64, BlockSize: 16, Assoc: 1 + rng.Intn(2)}
	if cfg.Assoc == 2 {
		cfg.SizeBytes = 128
	}
	if err := cfg.Validate(); err != nil {
		return Problem{}, err
	}
	var trace []memhier.Access
	var lines []string
	for i := 0; i < 8; i++ {
		addr := uint64(rng.Intn(16)) * 16
		if rng.Intn(3) == 0 && len(trace) > 0 {
			addr = trace[rng.Intn(len(trace))].Addr // encourage reuse
		}
		write := rng.Intn(4) == 0
		rw := "read"
		if write {
			rw = "write"
		}
		trace = append(trace, memhier.Access{Addr: addr, Write: write})
		lines = append(lines, fmt.Sprintf("  %s %#x", rw, addr))
	}
	table, err := cache.TraceTable(cfg, trace, len(trace))
	if err != nil {
		return Problem{}, err
	}
	return Problem{
		Topic: "cache-trace",
		Prompt: fmt.Sprintf(
			"For a %d-byte %d-way cache with %d-byte blocks (LRU), classify\n"+
				"each access as a hit or miss, noting evictions:\n%s",
			cfg.SizeBytes, cfg.Assoc, cfg.BlockSize, strings.Join(lines, "\n")),
		Solution: table,
	}, nil
}

// ProcessOutputsProblem: list all possible outputs of a small fork
// program — solved exhaustively by the kernel's interleaving search.
func ProcessOutputsProblem(rng *rand.Rand) (Problem, error) {
	letters := []string{"A", "B", "C", "D"}
	rng.Shuffle(len(letters), func(i, j int) { letters[i], letters[j] = letters[j], letters[i] })
	withWait := rng.Intn(2) == 0
	prog := []kernel.Op{
		kernel.Print{Text: letters[0]},
		kernel.Fork{Child: []kernel.Op{kernel.Print{Text: letters[1]}}},
	}
	src := fmt.Sprintf("printf(%q);\nif (fork() == 0) {\n    printf(%q);\n    exit(0);\n}\n",
		letters[0], letters[1])
	if withWait {
		prog = append(prog, kernel.Wait{}, kernel.Print{Text: letters[2]})
		src += fmt.Sprintf("wait(NULL);\nprintf(%q);\n", letters[2])
	} else {
		prog = append(prog, kernel.Print{Text: letters[2]}, kernel.Wait{})
		src += fmt.Sprintf("printf(%q);\nwait(NULL);\n", letters[2])
	}
	res, err := kernel.EnumerateOutputs(prog, 0)
	if err != nil {
		return Problem{}, err
	}
	return Problem{
		Topic:    "processes",
		Prompt:   "List ALL possible outputs of this program:\n\n" + src,
		Solution: fmt.Sprintf("%d possible: %s", len(res.Outputs), strings.Join(res.Outputs, ", ")),
	}, nil
}

// PageTableProblem: walk a sequence of virtual accesses through a small
// paged memory and report faults and final mappings — solved by the vm
// simulator.
func PageTableProblem(rng *rand.Rand) (Problem, error) {
	cfg := vm.Config{PageSize: 256, NumFrames: 2 + rng.Intn(2), NumPages: 8}
	sys, err := vm.New(cfg)
	if err != nil {
		return Problem{}, err
	}
	if err := sys.AddProcess(1); err != nil {
		return Problem{}, err
	}
	if err := sys.Switch(1); err != nil {
		return Problem{}, err
	}
	var promptLines, solLines []string
	for i := 0; i < 6; i++ {
		vaddr := uint64(rng.Intn(5)) * cfg.PageSize
		write := rng.Intn(3) == 0
		rw := "read"
		if write {
			rw = "write"
		}
		res, err := sys.Access(vaddr, write)
		if err != nil {
			return Problem{}, err
		}
		promptLines = append(promptLines, fmt.Sprintf("  %s %#06x", rw, vaddr))
		outcome := "hit"
		if res.PageFault {
			outcome = "PAGE FAULT"
			if res.Evicted {
				outcome += fmt.Sprintf(" (evicts page %d)", res.EvictedPg)
			}
		}
		solLines = append(solLines, fmt.Sprintf(
			"  %s %#06x -> page %d, frame %d, paddr %#06x  [%s]",
			rw, vaddr, res.Page, res.Frame, res.PhysAddr, outcome))
	}
	st := sys.Stats()
	solLines = append(solLines, fmt.Sprintf("total faults: %d, evictions: %d",
		st.PageFaults, st.Evictions))
	return Problem{
		Topic: "virtual-memory",
		Prompt: fmt.Sprintf(
			"A process on a machine with %d-byte pages and %d physical frames\n"+
				"(LRU replacement) performs these accesses. For each, give the\n"+
				"page number, the frame, the physical address, and whether it\n"+
				"faults:\n%s",
			cfg.PageSize, cfg.NumFrames, strings.Join(promptLines, "\n")),
		Solution: strings.Join(solLines, "\n"),
	}, nil
}
