// Package cs31_test is the benchmark harness that regenerates every table,
// figure, and quantitative claim in the paper's evaluation (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for paper-vs-measured results):
//
//	Table I   — BenchmarkTable1Coverage
//	Figure 1  — BenchmarkFigure1Survey
//	Claim C1  — BenchmarkLifeSpeedup (measured) + BenchmarkLifeSpeedupModel
//	Claim C2  — BenchmarkAmdahl
//	Claim C3  — BenchmarkCounter
//	Claim C4  — BenchmarkCacheStride
//	Claim C5  — BenchmarkVMTLB
//	Claim C6  — BenchmarkPipelineDepth
//
// Benches report shape metrics (speedup, hit rates, IPC) via
// b.ReportMetric so `go test -bench=. -benchmem` prints the series the
// paper plots.
package cs31_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cs31/internal/asm"
	"cs31/internal/cache"
	"cs31/internal/circuit"
	"cs31/internal/cpu"
	"cs31/internal/labd"
	"cs31/internal/life"
	"cs31/internal/memhier"
	"cs31/internal/memo"
	"cs31/internal/msgpass"
	"cs31/internal/obs"
	"cs31/internal/pthread"
	"cs31/internal/sorting"
	"cs31/internal/survey"
	"cs31/internal/sweep"
	"cs31/internal/vm"
)

// BenchmarkTable1Coverage regenerates Table I (the TCPP topic taxonomy).
func BenchmarkTable1Coverage(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = survey.RenderTable1()
	}
	topics := 0
	for _, cat := range survey.Table1 {
		topics += len(cat.Topics)
	}
	b.ReportMetric(float64(topics), "topics")
	_ = out
}

// BenchmarkFigure1Survey regenerates Figure 1 from the synthetic cohort and
// reports the mean rating of the most- and least-emphasized topics.
func BenchmarkFigure1Survey(b *testing.B) {
	var hi, lo float64
	for i := 0; i < b.N; i++ {
		cohort := survey.SyntheticCohort(2022, 120)
		stats, err := cohort.Aggregate()
		if err != nil {
			b.Fatal(err)
		}
		_ = survey.RenderFigure1(stats)
		hi, lo = stats[0].Mean, stats[len(stats)-1].Mean
	}
	b.ReportMetric(hi, "mean-C-programming")
	b.ReportMetric(lo, "mean-coherency")
}

// BenchmarkLifeSpeedup measures real wall-clock Game of Life scaling on
// this host (Claim C1). On a single-core host the curve is flat — the
// modeled variant below reproduces the paper's 16-core curve regardless.
func BenchmarkLifeSpeedup(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8, 16} {
		threads := threads
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			g, err := life.NewGrid(128, 128, life.Torus)
			if err != nil {
				b.Fatal(err)
			}
			g.Randomize(31, 0.3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if threads == 1 {
					g.Run(1)
					continue
				}
				pr := &life.ParallelRunner{G: g, Threads: threads}
				if _, err := pr.RunCtx(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLifeSpeedupModel evaluates the deterministic multicore model at
// the paper's scale and reports the modeled speedup per thread count —
// the "near linear up to 16 threads" series.
func BenchmarkLifeSpeedupModel(b *testing.B) {
	m := pthread.Lab10Model()
	for _, threads := range []int{1, 2, 4, 8, 16} {
		threads := threads
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				var err error
				sp, err = m.Speedup(threads)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sp, "modeled-speedup")
		})
	}
}

// BenchmarkAmdahl evaluates Amdahl's law across serial fractions and
// thread counts (Claim C2), reporting the bound at 16 threads.
func BenchmarkAmdahl(b *testing.B) {
	for _, frac := range []float64{0.05, 0.10, 0.25, 0.50} {
		frac := frac
		b.Run(fmt.Sprintf("serial-%02.0f%%", frac*100), func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				var err error
				sp, err = pthread.AmdahlSpeedup(frac, 16)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sp, "speedup-at-16")
		})
	}
}

// BenchmarkCounter times the shared-counter strategies (Claim C3: use
// synchronization sparingly): mutex per increment vs atomic vs sharded.
func BenchmarkCounter(b *testing.B) {
	for _, mode := range []pthread.CounterMode{pthread.Mutexed, pthread.Atomic, pthread.Sharded} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pthread.RunCounter(mode, 4, 1000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCacheStride replays the loop-order exercise (Claim C4) and
// reports each traversal's hit rate.
func BenchmarkCacheStride(b *testing.B) {
	cfg := cache.Config{SizeBytes: 1024, BlockSize: 64, Assoc: 1}
	workloads := map[string]func() []memhier.Access{
		"rowmajor": func() []memhier.Access { return memhier.MatrixTraceRowMajor(0, 64, 64, 4) },
		"colmajor": func() []memhier.Access { return memhier.MatrixTraceColMajor(0, 64, 64, 4) },
	}
	for name, gen := range workloads {
		gen := gen
		b.Run(name, func(b *testing.B) {
			trace := gen()
			var rate float64
			for i := 0; i < b.N; i++ {
				c, err := cache.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rate = c.RunTrace(trace).HitRate()
			}
			b.ReportMetric(rate*100, "hit-%")
		})
	}
}

// BenchmarkVMTLB replays a two-process paging workload with and without a
// TLB (Claim C5) and reports the effective access time.
func BenchmarkVMTLB(b *testing.B) {
	run := func(b *testing.B, tlbSize int) {
		var eat float64
		for i := 0; i < b.N; i++ {
			sys, err := vm.New(vm.Config{PageSize: 256, NumFrames: 32, TLBSize: tlbSize, NumPages: 64})
			if err != nil {
				b.Fatal(err)
			}
			sys.AddProcess(1)
			sys.AddProcess(2)
			for round := 0; round < 8; round++ {
				for _, pid := range []vm.Pid{1, 2} {
					if err := sys.Switch(pid); err != nil {
						b.Fatal(err)
					}
					for p := uint64(0); p < 8; p++ {
						for off := uint64(0); off < 4; off++ {
							if _, err := sys.Access(p*256+off*8, off == 0); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			}
			eat = sys.EffectiveAccessTime(100, 10_000)
			b.ReportMetric(100*sys.Stats().TLBHitRate(), "tlb-hit-%")
		}
		b.ReportMetric(eat, "eat-ns")
	}
	b.Run("tlb-0", func(b *testing.B) { run(b, 0) })
	b.Run("tlb-16", func(b *testing.B) { run(b, 16) })
}

// BenchmarkMachineArithLoop times the asm machine's instruction-dispatch
// hot loop on a register/immediate arithmetic kernel — the path every
// compiled-C and hand-written-assembly lab exercises. The "steps" metric is
// deterministic and doubles as a shape check that dispatch semantics have
// not drifted.
func BenchmarkMachineArithLoop(b *testing.B) {
	prog, err := asm.Assemble(`
main:
    movl $0, %eax
    movl $0, %ebx
    movl $20000, %ecx
loop:
    addl $3, %eax
    movl %eax, %edx
    imull $5, %edx
    subl %edx, %ebx
    andl $0xffff, %ebx
    decl %ecx
    cmpl $0, %ecx
    jne loop
    ret
`)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := asm.NewMachineSize(prog, 1<<16)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(1 << 20); err != nil {
			b.Fatal(err)
		}
		steps = m.Steps
	}
	b.ReportMetric(float64(steps), "steps")
}

// BenchmarkAsmRequest times the work of one labd /v1/asm/run request for
// the classroom mix's asm-loop template: Assemble, NewMachine at the
// default 1 MiB memory size, and Run. BenchmarkMachineArithLoop uses a
// 64 KiB machine, so only this benchmark sees the per-request machine
// set-up. The "steps" metric is deterministic (6004).
func BenchmarkAsmRequest(b *testing.B) {
	const src = `
main:
    movl $2000, %ecx
loop:
    decl %ecx
    cmpl $0, %ecx
    jne loop
    movl $7, %ebx
    movl $1, %eax
    int $0x80
`
	var steps int64
	for i := 0; i < b.N; i++ {
		prog, err := asm.Assemble(src)
		if err != nil {
			b.Fatal(err)
		}
		m, err := asm.NewMachine(prog)
		if err != nil {
			b.Fatal(err)
		}
		var out strings.Builder
		m.Stdin = strings.NewReader("")
		m.Stdout = &out
		if err := m.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		steps = m.Steps
	}
	b.ReportMetric(float64(steps), "steps")
}

// BenchmarkCacheLookup times the cache simulator's set-lookup hot path on a
// mixed hit/miss/eviction workload over a 4-way LRU cache. The hit rate is
// deterministic and doubles as a shape check on replacement semantics.
func BenchmarkCacheLookup(b *testing.B) {
	cfg := cache.Config{SizeBytes: 4096, BlockSize: 64, Assoc: 4, Repl: cache.LRU}
	trace := make([]memhier.Access, 0, 1<<15)
	for i := 0; i < 1<<13; i++ {
		base := uint64(i%256) * 64 // cycles through 2x the cache capacity
		trace = append(trace, memhier.R(base), memhier.W(base+4),
			memhier.R(base+32), memhier.R(uint64(i%31)*4096))
	}
	var stats cache.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cache.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		stats = c.RunTrace(trace)
	}
	b.ReportMetric(100*stats.HitRate(), "hit-%")
}

// roundBarrier is the surface shared by the combining-tree Barrier and the
// retained mutex+Cond RefBarrier, so one harness can time both.
type roundBarrier interface {
	Wait() (serial bool)
	Rounds() int64
}

// BenchmarkBarrierWait times one full barrier round — parties goroutines
// arriving and being released — for the combining-tree barrier against the
// retained central mutex+Cond reference. Each goroutine crosses the barrier
// b.N times, so ns/op is the cost of one round. The serial-per-round metric
// is deterministic (exactly one serial waiter per round) and doubles as a
// shape check on the serial-thread convention.
func BenchmarkBarrierWait(b *testing.B) {
	impls := []struct {
		name string
		mk   func(parties int) (roundBarrier, error)
	}{
		{"tree", func(p int) (roundBarrier, error) { return pthread.NewBarrier(p) }},
		{"ref", func(p int) (roundBarrier, error) { return pthread.NewRefBarrier(p) }},
	}
	for _, impl := range impls {
		for _, parties := range []int{4, 16} {
			impl, parties := impl, parties
			b.Run(fmt.Sprintf("%s-%d", impl.name, parties), func(b *testing.B) {
				bar, err := impl.mk(parties)
				if err != nil {
					b.Fatal(err)
				}
				var serials int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for t := 0; t < parties; t++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							if bar.Wait() {
								serials++ // only the serial waiter of a round writes
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				if bar.Rounds() != int64(b.N) {
					b.Fatalf("completed %d rounds, want %d", bar.Rounds(), b.N)
				}
				b.ReportMetric(float64(serials)/float64(b.N), "serial-per-round")
			})
		}
	}
}

// BenchmarkLifeEngines times the three Game of Life engines — serial
// Grid.Run, the 8-thread ParallelRunner (Lab 10's sharded-stats,
// one-barrier-per-generation runner) and the 8-rank message-passing
// DistRunner — on one workload: a 4-generation run on a fresh clone of the
// same seeded 192x192 torus board. All three advance the bit-packed board
// through the SWAR kernel (64 cells per word, full-adder neighbor
// counting), so the serial/parallel-8/dist-8 ns/op ratios price threads
// and messages alone, and every live-updates metric must agree — a
// cross-engine differential baked into the baseline gate. The serial path
// must not allocate (clones happen under StopTimer); dist-8 additionally
// reports comm-bytes, the deterministic halo, block and Allreduce traffic
// of one op.
func BenchmarkLifeEngines(b *testing.B) {
	template, err := life.NewGrid(192, 192, life.Torus)
	if err != nil {
		b.Fatal(err)
	}
	template.Randomize(47, 0.3)
	const gens = 4
	b.Run("serial", func(b *testing.B) {
		var updates int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := template.Clone()
			b.StartTimer()
			updates = g.Run(gens)
		}
		b.ReportMetric(float64(updates), "live-updates")
	})
	b.Run("parallel-8", func(b *testing.B) {
		var updates int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := template.Clone()
			b.StartTimer()
			pr := &life.ParallelRunner{G: g, Threads: 8}
			stats, err := pr.RunCtx(context.Background(), gens)
			if err != nil {
				b.Fatal(err)
			}
			updates = stats.LiveUpdates
		}
		b.ReportMetric(float64(updates), "live-updates")
	})
	b.Run("dist-8", func(b *testing.B) {
		var updates, bytes int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := template.Clone()
			b.StartTimer()
			dr := &life.DistRunner{G: g, Ranks: 8}
			stats, err := dr.RunCtx(context.Background(), gens)
			if err != nil {
				b.Fatal(err)
			}
			updates = stats.LiveUpdates
			bytes = dr.CommStats.BytesSent
		}
		b.ReportMetric(float64(updates), "live-updates")
		b.ReportMetric(float64(bytes), "comm-bytes")
	})
}

// BenchmarkLifeStep times one serial generation, Grid.Run(1), on a seeded
// density-0.3 torus at the widths the workloads use: labd's small life
// requests (32²), the classroom mix's largest board (256²) and
// cs31bench's life-large board (2048², above the per-core L2). The kernel
// must not allocate. gen1-updates, the cells the seeded board's first
// generation changes, is counted on a clone outside the timer: a shape
// metric that pins the kernel's answer at each width.
func BenchmarkLifeStep(b *testing.B) {
	for _, n := range []int{32, 256, 2048} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			g, err := life.NewGrid(n, n, life.Torus)
			if err != nil {
				b.Fatal(err)
			}
			g.Randomize(31, 0.3)
			updates := g.Clone().Run(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Run(1)
			}
			b.ReportMetric(float64(updates), "gen1-updates")
		})
	}
}

// BenchmarkPopulation times Grid.Population, one popcount per 64-cell
// word. The population metric is deterministic for the seeded board, and
// the count must not allocate.
func BenchmarkPopulation(b *testing.B) {
	g, err := life.NewGrid(192, 192, life.Torus)
	if err != nil {
		b.Fatal(err)
	}
	g.Randomize(47, 0.3)
	b.Run("packed", func(b *testing.B) {
		var pop int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pop = g.Population()
		}
		b.ReportMetric(float64(pop), "population")
	})
}

// BenchmarkRandomize times board seeding, Grid.Randomize at density 0.3,
// on the square sizes labd's life requests span (the classroom mix asks
// for 32² to 256²). Every fresh life request pays it before its first
// generation. live-cells is the seeded board's population, a shape metric
// that pins which board the seed names.
func BenchmarkRandomize(b *testing.B) {
	for _, n := range []int{32, 128, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			g, err := life.NewGrid(n, n, life.Torus)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Randomize(31, 0.3)
			}
			b.ReportMetric(float64(g.Population()), "live-cells")
		})
	}
}

// BenchmarkAllreduce times one combining-tree Allreduce across 8 ranks:
// the world is created once, every rank runs b.N reductions back to back,
// so ns/op is the latency of one collective (fan-in tree + broadcast). The
// sum metric is the deterministic reference result (1+2+...+8).
func BenchmarkAllreduce(b *testing.B) {
	const ranks = 8
	w, err := msgpass.NewWorld(ranks)
	if err != nil {
		b.Fatal(err)
	}
	add := func(a, b int64) int64 { return a + b }
	var sum int64
	b.ResetTimer()
	err = w.Run(func(c *msgpass.Comm) error {
		for i := 0; i < b.N; i++ {
			v, err := msgpass.Allreduce(c, int64(c.Rank()+1), add)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				sum = v
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(sum), "sum")
}

// BenchmarkHaloExchange times one ring halo-exchange round across 8 ranks at
// cols=4096 — the per-generation communication kernel of the distributed
// Life engine in isolation, on a world built like the runner's (default
// inbox depth). Each rank posts both sends, then receives both neighbors'
// rows. The bytes-per-round metric is the deterministic wire size of one halo row:
// 512 bytes, 64 packed uint64 words, an eighth of one byte per cell.
func BenchmarkHaloExchange(b *testing.B) {
	const ranks, cols = 8, 4096
	b.Run("packed-4096", func(b *testing.B) {
		w, err := msgpass.NewWorld(ranks)
		if err != nil {
			b.Fatal(err)
		}
		before := w.Stats().BytesSent
		b.ResetTimer()
		err = w.Run(func(c *msgpass.Comm) error {
			rank := c.Rank()
			up := (rank + ranks - 1) % ranks
			down := (rank + 1) % ranks
			top, bot := make([]uint64, cols/64), make([]uint64, cols/64)
			for i := 0; i < b.N; i++ {
				if err := msgpass.Send(c, up, 1, top); err != nil {
					return err
				}
				if err := msgpass.Send(c, down, 2, bot); err != nil {
					return err
				}
				var err error
				if top, err = msgpass.Recv[[]uint64](c, up, 2); err != nil {
					return err
				}
				if bot, err = msgpass.Recv[[]uint64](c, down, 1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		per := float64(w.Stats().BytesSent-before) / float64(b.N) / float64(ranks*2)
		b.ReportMetric(per, "bytes-per-round")
	})
}

// BenchmarkSweepGrid times the concurrent experiment-sweep engine end to
// end: fan a 12-case Game of Life grid (2 sizes x 3 thread counts x 2
// partitions) across 4 pool workers. The total-live-updates metric sums a
// deterministic quantity over the whole grid, so it doubles as a shape check
// that the pool ran every case exactly once.
func BenchmarkSweepGrid(b *testing.B) {
	cases := sweep.LifeGrid([][2]int{{32, 32}, {48, 24}}, []int{1, 2, 4},
		[]life.Partition{life.ByRows, life.ByCols}, 3, 2022, 0.3)
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sweep.RunLifeGrid(context.Background(), 4, cases)
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range results {
			total += r.LiveUpdates
		}
	}
	b.ReportMetric(float64(len(cases)), "cases")
	b.ReportMetric(float64(total), "total-live-updates")
}

// BenchmarkVMAccess times the vm simulator's address-translation hot path on
// its two extremes: a TLB-resident working-set walk (every access after the
// first touch of a page hits the TLB) and a thrashing walk whose cycle
// exceeds physical memory (every access faults). Both rates are
// deterministic shape metrics.
func BenchmarkVMAccess(b *testing.B) {
	run := func(b *testing.B, cfg vm.Config, pages, rounds int) {
		var stats vm.Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys, err := vm.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sys.AddProcess(1)
			if err := sys.Switch(1); err != nil {
				b.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				for p := uint64(0); p < uint64(pages); p++ {
					if _, err := sys.Access(p*cfg.PageSize, false); err != nil {
						b.Fatal(err)
					}
				}
			}
			stats = sys.Stats()
		}
		b.ReportMetric(100*stats.FaultRate(), "fault-%")
		b.ReportMetric(100*stats.TLBHitRate(), "tlb-hit-%")
	}
	b.Run("tlb-hit", func(b *testing.B) {
		// 8-page working set fits the 16-entry TLB and the 32 frames: 8
		// cold faults, then pure TLB hits.
		run(b, vm.Config{PageSize: 256, NumFrames: 32, TLBSize: 16, NumPages: 64}, 8, 64)
	})
	b.Run("page-fault", func(b *testing.B) {
		// Cycling 64 pages through 8 frames evicts every page before its
		// reuse: a fault on every access, and a 4-entry TLB never hits.
		run(b, vm.Config{PageSize: 256, NumFrames: 8, TLBSize: 4, NumPages: 64}, 64, 8)
	})
}

// BenchmarkMatrixTraceAlloc measures the Append-form trace generators
// reusing one preallocated buffer: allocs/op must be zero (gated as a shape
// metric in BENCH_BASELINE.json).
func BenchmarkMatrixTraceAlloc(b *testing.B) {
	buf := make([]memhier.Access, 0, 64*64)
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := memhier.AppendMatrixTraceRowMajor(buf[:0], 0, 64, 64, 4)
		t = memhier.AppendMatrixTraceColMajor(t[:0], 0, 64, 64, 4)
		t = memhier.AppendStrideTrace(t[:0], 0, 64*64, 64)
		sink = len(t)
	}
	_ = sink
	b.ReportMetric(float64(sink), "trace-len")
}

// circuitSettleSweep is the shared stimulus for BenchmarkCircuitSettle: 64
// settles over a width-16 ALU cycling through all eight ops with operand B
// incrementing — the incremental-stimulus shape an exhaustive verify sweep
// produces, where consecutive settles differ in a few low input bits. It
// returns a checksum of every result bus, so the compiled and reference
// subbenches double as a differential test.
func circuitSettleSweep(b *testing.B, c *circuit.Circuit, alu *circuit.ALU, ref bool) uint64 {
	var sig uint64
	if err := c.SetBus(alu.A, 0x5a33); err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 64; j++ {
		if err := c.SetBus(alu.B, uint64(j)); err != nil {
			b.Fatal(err)
		}
		if err := c.SetBus(alu.Op, uint64(j/8)); err != nil {
			b.Fatal(err)
		}
		var err error
		if ref {
			err = c.RefSettle()
		} else {
			err = c.Settle()
		}
		if err != nil {
			b.Fatal(err)
		}
		sig = sig*31 + c.GetBus(alu.Result)
	}
	return sig
}

// BenchmarkCircuitSettle times one 64-settle stimulus sweep over a width-16
// gate-level ALU on the compiled plan engine (levelized, event-driven)
// against the retained reference sweep. The result-sig metric is a
// deterministic checksum identical across both subbenches, so the baseline
// gate doubles as a compiled-vs-reference differential; the compiled engine
// must stay allocation-free in steady state.
func BenchmarkCircuitSettle(b *testing.B) {
	for _, ref := range []bool{false, true} {
		ref := ref
		name := "compiled"
		if ref {
			name = "ref"
		}
		b.Run(name, func(b *testing.B) {
			c := circuit.New()
			alu := circuit.NewALU(c, 16)
			var sig uint64
			sig = circuitSettleSweep(b, c, alu, ref) // warm: compile, grow buffers
			if !ref {
				b.ReportAllocs()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sig = circuitSettleSweep(b, c, alu, ref)
			}
			b.ReportMetric(float64(sig%1e9), "result-sig")
		})
	}
}

// BenchmarkGateALU times the gate-level datapath executing a fixed
// 8-instruction register-form program — the cpu.Machine GateALU execute
// path. The register checksum is deterministic and doubles as a shape check
// on datapath semantics; the hot path must not allocate (the circuit plan
// is compiled once in NewDatapath).
func BenchmarkGateALU(b *testing.B) {
	prog := []cpu.Instr{
		{Op: cpu.OpLoadI, Rd: 0, Imm: 0x1f3},
		{Op: cpu.OpLoadI, Rd: 1, Imm: 0x2a},
		{Op: cpu.OpAdd, Rd: 2, Rs: 0, Rt: 1},
		{Op: cpu.OpXor, Rd: 3, Rs: 2, Rt: 0},
		{Op: cpu.OpSub, Rd: 4, Rs: 3, Rt: 1},
		{Op: cpu.OpShl, Rd: 5, Rs: 4},
		{Op: cpu.OpOr, Rd: 6, Rs: 5, Rt: 2},
		{Op: cpu.OpAnd, Rd: 7, Rs: 6, Rt: 3},
	}
	d, err := cpu.NewDatapath(3, 16)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.RunRType(prog); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.RunRType(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var sum uint64
	for r := 0; r < 8; r++ {
		v, err := d.ReadReg(r)
		if err != nil {
			b.Fatal(err)
		}
		sum = sum*31 + v
	}
	b.ReportMetric(float64(sum%1e9), "reg-sig")
}

// BenchmarkALUVerifyBatch times the logisim -verify workload: one op is the
// full exhaustive check of a width-8 gate-level ALU — all 8 ops x 65536
// operand pairs — through the 64-lane bit-parallel batch engine against the
// functional reference. Both metrics are deterministic: vectors counts the
// cases checked, mismatches must be zero.
func BenchmarkALUVerifyBatch(b *testing.B) {
	c := circuit.New()
	alu := circuit.NewALU(c, 8)
	batch := c.NewBatch()
	as := make([]uint64, circuit.BatchLanes)
	bs := make([]uint64, circuit.BatchLanes)
	res := make([]uint64, circuit.BatchLanes)
	vectors, mismatches := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vectors, mismatches = 0, 0
		for op := circuit.ALUOp(0); op < 8; op++ {
			for base := 0; base < 65536; base += circuit.BatchLanes {
				for l := 0; l < circuit.BatchLanes; l++ {
					as[l] = uint64(base+l) >> 8
					bs[l] = uint64(base+l) & 0xff
				}
				if err := alu.RunBatch(batch, op, as, bs, res, nil); err != nil {
					b.Fatal(err)
				}
				for l := 0; l < circuit.BatchLanes; l++ {
					want, _ := circuit.RefALU(op, as[l], bs[l], 8)
					if res[l] != want {
						mismatches++
					}
					vectors++
				}
			}
		}
	}
	b.ReportMetric(float64(vectors), "vectors")
	b.ReportMetric(float64(mismatches), "mismatches")
}

// BenchmarkPipelineDepth evaluates the pipelining model (Claim C6),
// reporting IPC by depth.
func BenchmarkPipelineDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 5} {
		depth := depth
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			m := cpu.PipelineModel{Stages: depth, BranchFreq: 0.15, BranchPenalty: depth - 1}
			var ipc float64
			for i := 0; i < b.N; i++ {
				ipc = m.IPC(1_000_000)
			}
			b.ReportMetric(ipc, "ipc")
			b.ReportMetric(m.Speedup(1_000_000), "speedup-vs-unpipelined")
		})
	}
}

// BenchmarkMemoHit times the memoization fast path in isolation: one op is
// a resident-key lookup in a sharded memo.Cache — lock, LRU touch, return
// the pre-encoded bytes. The hit path must stay allocation-free; allocs/op
// and B/op are pinned at zero in the baseline.
func BenchmarkMemoHit(b *testing.B) {
	c := memo.New(1<<20, 8)
	ctx := context.Background()
	const key = 0x9e3779b97f4a7c15
	payload := bytes.Repeat([]byte("x"), 512)
	if _, _, err := c.Do(ctx, key, func() ([]byte, error) { return payload, nil }); err != nil {
		b.Fatal(err)
	}
	poison := func() ([]byte, error) {
		b.Fatal("hit path ran the computation")
		return nil, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val, outcome, err := c.Do(ctx, key, poison)
		if err != nil || outcome != memo.Hit || len(val) != len(payload) {
			b.Fatalf("outcome %v err %v len %d", outcome, err, len(val))
		}
	}
}

// BenchmarkMemoCoalesce measures request coalescing: one op fans 8
// goroutines onto the same fresh key, and the flight leader holds the
// computation open until every goroutine has arrived at the cache, so the
// whole fan-in lands on one in-flight computation. The computes metric is
// the op's compute count and must be exactly 1 — that equality is the
// gated claim, independent of scheduling order (late arrivals are served
// the cached value; the flight still ran once).
func BenchmarkMemoCoalesce(b *testing.B) {
	const fanout = 8
	c := memo.New(1<<20, 8)
	ctx := context.Background()
	var computes atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i) + 1
		var arrived atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < fanout; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				arrived.Add(1)
				_, _, err := c.Do(ctx, key, func() ([]byte, error) {
					computes.Add(1)
					for arrived.Load() < fanout {
						// Single-core friendly wait; async preemption
						// makes a bare spin safe, but yielding is faster.
						time.Sleep(time.Microsecond)
					}
					return []byte("coalesced"), nil
				})
				if err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(computes.Load())/float64(b.N), "computes")
}

// benchLabd builds a quiet labd server for the cache benchmarks and tears
// it down with the benchmark.
func benchLabd(b *testing.B) http.Handler {
	b.Helper()
	s := labd.New(labd.Config{Workers: 1, QueueDepth: 64, DefaultTimeout: time.Minute})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	})
	return s.Handler()
}

// postLife drives one life request through the handler stack without a
// network socket, returning the recorder for header/body checks.
func postLife(h http.Handler, body []byte) *httptest.ResponseRecorder {
	return postLabd(h, "/v1/life/run", body)
}

// postLabd is postLife for any POST endpoint.
func postLabd(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// BenchmarkLabdCacheHit is the end-to-end hit path: one op is a full HTTP
// round trip (decode, canonical key, cache lookup, pre-encoded bytes to
// the wire) for a life request whose response is resident. The paired
// BenchmarkLabdCacheMiss runs the same request cold; the ns/op ratio is
// the memoization speedup EXPERIMENTS.md quotes. allocs-per-hit pins the
// per-request allocation count of the hit path (request parsing and
// recorder included — the cache layer itself adds none).
func BenchmarkLabdCacheHit(b *testing.B) {
	benchCacheHit(b, "/v1/life/run", []byte(`{"rows":192,"cols":192,"iters":4,"seed":31,"threads":1}`))
}

// BenchmarkLabdCacheHitTrace is the hit path for the classroom mix's
// largest body: a resident 256-access /v1/cache/sim trace (4.6 KB), built
// like cs31bench's cache-256 template, so reading and decoding the body
// dominate the op. allocs-per-hit pins the per-request allocation count.
func BenchmarkLabdCacheHitTrace(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	body := []byte(`{"trace":[`)
	for j := 0; j < 256; j++ {
		if j > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"addr":`...)
		body = strconv.AppendUint(body, uint64(rng.Intn(1<<16))&^3, 10)
		if rng.Intn(4) == 0 {
			body = append(body, `,"write":true`...)
		}
		body = append(body, '}')
	}
	body = append(body, "]}"...)
	benchCacheHit(b, "/v1/cache/sim", body)
}

// benchCacheHit primes the response to body at path, then times resident
// hits of it and reports their allocation count as allocs-per-hit.
func benchCacheHit(b *testing.B, path string, body []byte) {
	h := benchLabd(b)
	if rec := postLabd(h, path, body); rec.Code != http.StatusOK {
		b.Fatalf("prime status %d: %s", rec.Code, rec.Body)
	}
	if rec := postLabd(h, path, body); rec.Header().Get("X-Labd-Cache") != "hit" {
		b.Fatalf("want hit, got %q", rec.Header().Get("X-Labd-Cache"))
	}
	allocs := testing.AllocsPerRun(64, func() { postLabd(h, path, body) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := postLabd(h, path, body); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(math.Round(allocs), "allocs-per-hit")
}

// BenchmarkLabdCacheMiss is the cold side of the pair: every op carries a
// distinct seed, so every request misses, runs the 192x192x4 life job
// through the worker pool, and encodes a fresh response. Compare its ns/op
// against BenchmarkLabdCacheHit for the hit-path speedup.
func BenchmarkLabdCacheMiss(b *testing.B) {
	h := benchLabd(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"rows":192,"cols":192,"iters":4,"seed":%d,"threads":1}`, 100_000+i)
		rec := postLife(h, []byte(body))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Labd-Cache"); got != "miss" {
			b.Fatalf("want miss, got %q", got)
		}
	}
}

// BenchmarkParallelMergeSort times sorting.ParallelMerge on 64Ki ints at
// 1, 2, and 8 threads. measured-speedup is wall-clock-derived (t1/tN) and
// therefore volatile — benchdiff's -update skips measured-* units so the
// baseline only pins the deterministic element count and timings on the
// gated variants.
func BenchmarkParallelMergeSort(b *testing.B) {
	const n = 1 << 16
	src := make([]int, n)
	rng := rand.New(rand.NewSource(31))
	for i := range src {
		src[i] = rng.Intn(1<<20) - 1<<19
	}
	var serialNs float64
	for _, threads := range []int{1, 2, 8} {
		threads := threads
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			buf := make([]int, n)
			copy(buf, src)
			if err := sorting.ParallelMerge(buf, threads); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				if err := sorting.ParallelMerge(buf, threads); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !sort.IntsAreSorted(buf) {
				b.Fatal("output not sorted")
			}
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if threads == 1 {
				serialNs = nsPerOp
			} else if serialNs > 0 && nsPerOp > 0 {
				b.ReportMetric(serialNs/nsPerOp, "measured-speedup")
			}
			b.ReportMetric(n, "elements")
		})
	}
}

// BenchmarkObsDisabled is the zero-overhead contract of internal/obs,
// hard-gated in CI at 0 allocs/op: with no trace or histogram attached,
// a fully instrumented hot-path iteration — span begin/end, a completed
// span with args, a histogram observation, and the atomic-pointer check
// every instrumented component (barrier, scheduler, msgpass) performs —
// costs a handful of nil checks and one atomic load, and allocates
// nothing.
func BenchmarkObsDisabled(b *testing.B) {
	var tr *obs.Trace
	lane := tr.Lane("disabled") // nil: every method is a no-op
	name := tr.Name("disabled") // zero handle
	var h *obs.Histogram
	var attached atomic.Pointer[obs.Histogram] // the component-side check
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ah := attached.Load(); ah != nil {
			ah.Observe(1)
		}
		lane.Begin(name)
		lane.End(name)
		lane.CompleteArgs(name, time.Time{}, int64(i), 0)
		h.Observe(int64(i))
	}
}

// BenchmarkMetricsScrape is the GET /metrics smoke test under the bench
// gate: one op renders the full Prometheus text exposition of a labd
// server with live traffic behind it. families pins the exposition's
// shape — a family silently vanishing from the scrape is a regression
// even if the endpoint still answers 200.
func BenchmarkMetricsScrape(b *testing.B) {
	h := benchLabd(b)
	body := []byte(`{"rows":64,"cols":64,"iters":2,"seed":31,"threads":1}`)
	if rec := postLife(h, body); rec.Code != http.StatusOK {
		b.Fatalf("prime status %d: %s", rec.Code, rec.Body)
	}
	postLife(h, body) // a hit, so cache-outcome series exist too
	scrape := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	rec := scrape()
	if rec.Code != http.StatusOK {
		b.Fatalf("scrape status %d", rec.Code)
	}
	families := strings.Count(rec.Body.String(), "# TYPE ")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := scrape(); rec.Code != http.StatusOK {
			b.Fatalf("scrape status %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(families), "families")
}

// BenchmarkObsOverhead measures what turning tracing and barrier-wait
// histograms ON costs the hottest kernel in the repo: one op is a full
// 256x256 parallel generation, run dark and then fully
// instrumented. The ns/op pair is the enabled-vs-disabled overhead
// EXPERIMENTS.md quotes. (No shape metric: per-generation update counts
// depend on how far the board has evolved, i.e. on b.N.)
func BenchmarkObsOverhead(b *testing.B) {
	const threads = 8
	run := func(b *testing.B, traced bool) {
		g, err := life.NewGrid(256, 256, life.Torus)
		if err != nil {
			b.Fatal(err)
		}
		g.Randomize(31, 0.3)
		pr := &life.ParallelRunner{G: g, Threads: threads}
		if traced {
			// A capacity generous enough that the ring never wraps:
			// dropped events would understate the enabled cost.
			pr.Trace = obs.New(obs.WithLaneCapacity(1 << 16))
			pr.BarrierWaits = obs.NewHistogram(threads)
		}
		b.ResetTimer()
		stats, err := pr.RunCtx(context.Background(), b.N)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Rounds != b.N {
			b.Fatalf("ran %d rounds, want %d", stats.Rounds, b.N)
		}
		if traced {
			if pr.Trace.Drops() > 0 {
				b.Fatalf("trace dropped %d events", pr.Trace.Drops())
			}
			if got := pr.BarrierWaits.Snapshot().Count; got != int64(threads)*int64(b.N) {
				b.Fatalf("histogram has %d waits, want %d", got, int64(threads)*int64(b.N))
			}
		}
	}
	b.Run(fmt.Sprintf("off-%d", threads), func(b *testing.B) { run(b, false) })
	b.Run(fmt.Sprintf("on-%d", threads), func(b *testing.B) { run(b, true) })
}
