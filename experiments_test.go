package cs31_test

// Shape tests: each experiment's qualitative result from the paper — who
// wins, by roughly what factor, where behaviour changes — asserted as a
// regression test. EXPERIMENTS.md records the numbers these produce.

import (
	"context"
	"strings"
	"testing"

	"cs31/internal/cache"
	"cs31/internal/core"
	"cs31/internal/cpu"
	"cs31/internal/life"
	"cs31/internal/memhier"
	"cs31/internal/pthread"
	"cs31/internal/survey"
	"cs31/internal/sweep"
	"cs31/internal/vm"
)

// TestTable1Shape: Table I spans all four TCPP areas with the headline
// topics present.
func TestTable1Shape(t *testing.T) {
	out := survey.RenderTable1()
	for _, topic := range []string{
		"concurrency", "multicore", "caching", "memory hierarchy",
		"pthreads", "race conditions", "deadlock", "speedup", "Amdahl's Law",
	} {
		if !strings.Contains(out, topic) {
			t.Errorf("Table I missing %q", topic)
		}
	}
}

// TestFigure1Shape: the survey reproduction matches every qualitative
// finding of §IV.
func TestFigure1Shape(t *testing.T) {
	cohort := survey.SyntheticCohort(2022, 120)
	stats, err := cohort.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if problems := survey.CheckPaperShape(cohort.Topics, stats); len(problems) != 0 {
		t.Errorf("Figure 1 shape violations: %v", problems)
	}
}

// TestClaimC1Shape: the modeled Lab 10 machine shows near-linear speedup
// to 16 threads, and the parallel engine is exactly equivalent to serial.
func TestClaimC1Shape(t *testing.T) {
	m := pthread.Lab10Model()
	sp16, err := m.Speedup(16)
	if err != nil {
		t.Fatal(err)
	}
	if sp16 < 12.8 { // "near linear": >= 80% efficiency at 16
		t.Errorf("modeled 16-thread speedup %.2f below near-linear", sp16)
	}
	// Correctness leg of the claim, on real threads: the full Figure-1
	// thread grid runs concurrently on 4 sweep pool workers, and every
	// point must land on the serial engine's board. A ByCols tile is a
	// 64-column word block, so the 64-column board runs every column point
	// on one tile; the 1024-column board (16 words) gives each thread
	// count up to 16 its own column tiles.
	type outcome struct {
		population int
		updates    int64
	}
	type point struct {
		size [2]int
		eng  life.Engine
	}
	want := map[[2]int]outcome{}
	var pts []point
	for _, sz := range [][2]int{{64, 64}, {64, 1024}} {
		serial, err := life.NewGrid(sz[0], sz[1], life.Torus)
		if err != nil {
			t.Fatal(err)
		}
		serial.Randomize(7, 0.3)
		want[sz] = outcome{updates: serial.Run(10), population: serial.Population()}
		for _, w := range []int{2, 4, 8, 16} {
			pts = append(pts, point{sz, life.Engine{Workers: w}}, point{sz, life.Engine{Workers: w, Partition: life.ByCols}})
		}
	}
	got, err := sweep.Run(context.Background(), 4, pts, func(ctx context.Context, p point) (outcome, error) {
		g, err := life.NewGrid(p.size[0], p.size[1], life.Torus)
		if err != nil {
			return outcome{}, err
		}
		g.Randomize(7, 0.3)
		stats, err := life.Advance(ctx, g, p.eng, 10)
		if err != nil {
			return outcome{}, err
		}
		return outcome{g.Population(), stats.LiveUpdates}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if w := want[p.size]; got[i] != w {
			t.Errorf("%v on %d workers by %v diverged from serial: population %d, live updates %d; serial has %d, %d",
				p.size, p.eng.Workers, p.eng.Partition, got[i].population, got[i].updates, w.population, w.updates)
		}
	}
}

// TestClaimC2Shape: Amdahl crossover — at a 5% serial fraction 16 threads
// reach ~9x, and no thread count beats 1/s.
func TestClaimC2Shape(t *testing.T) {
	sp, err := pthread.AmdahlSpeedup(0.05, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sp < 9 || sp > 10 {
		t.Errorf("Amdahl(5%%, 16) = %.2f, expected ~9.1", sp)
	}
	limit, err := pthread.AmdahlLimit(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{64, 1024, 1 << 20} {
		s, err := pthread.AmdahlSpeedup(0.05, n)
		if err != nil {
			t.Fatal(err)
		}
		if s > limit {
			t.Errorf("Amdahl(%d) = %.2f exceeds limit %.2f", n, s, limit)
		}
	}
}

// TestClaimC3Shape: synchronization correctness — mutex/atomic/sharded all
// deliver exact counts (the race's fix), which is the precondition for the
// "synchronize sparingly" performance comparison.
func TestClaimC3Shape(t *testing.T) {
	for _, mode := range []pthread.CounterMode{pthread.Mutexed, pthread.Atomic, pthread.Sharded} {
		res, err := pthread.RunCounter(mode, 8, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Final != res.Expected {
			t.Errorf("%v lost %d updates", mode, res.LostUpdates())
		}
	}
}

// TestClaimC4Shape: the stride exercise — row-major wins by a large factor
// on the standalone simulator, and still wins through the full compiled
// pipeline.
func TestClaimC4Shape(t *testing.T) {
	// The standalone-simulator leg replays both traversals of a 64x64
	// matrix concurrently on the sweep pool, each on its own cache.
	cfg := cache.Config{SizeBytes: 1024, BlockSize: 64, Assoc: 1}
	traces := [][]memhier.Access{memhier.MatrixTraceRowMajor(0, 64, 64, 4), memhier.MatrixTraceColMajor(0, 64, 64, 4)}
	rates, err := sweep.Run(context.Background(), 2, traces, func(_ context.Context, trace []memhier.Access) (float64, error) {
		sim, err := cache.New(cfg)
		if err != nil {
			return 0, err
		}
		return sim.RunTrace(trace).HitRate(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] < 0.9 {
		t.Errorf("row-major hit rate %.3f, expected ~0.94", rates[0])
	}
	if rates[1] > 0.1 {
		t.Errorf("column-major hit rate %.3f, expected ~0", rates[1])
	}

	// Through the compiled pipeline (stack traffic dilutes but the order
	// must hold).
	src := `
int main() {
    int m[1024];
    int sum = 0;
    for (int i = 0; i < 32; i++) {
        for (int j = 0; j < 32; j++) { sum += m[i * 32 + j]; }
    }
    return 0;
}`
	swapped := strings.ReplaceAll(src, "m[i * 32 + j]", "m[j * 32 + i]")
	pcfg := core.Config{Cache: cache.Config{SizeBytes: 512, BlockSize: 64, Assoc: 1}}
	rmRes, err := core.Run(src, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	cmRes, err := core.Run(swapped, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if rmRes.CacheStats.HitRate() <= cmRes.CacheStats.HitRate() {
		t.Errorf("pipeline: row-major %.3f should beat column-major %.3f",
			rmRes.CacheStats.HitRate(), cmRes.CacheStats.HitRate())
	}
}

// TestClaimC5Shape: the TLB reduces effective access time, and context
// switches cost translation state.
func TestClaimC5Shape(t *testing.T) {
	// Both TLB configurations run the same working-set walk, 16 passes
	// over 8 pages of one process, concurrently on the sweep pool.
	withoutTLB := vm.Config{PageSize: 256, NumFrames: 32, NumPages: 64}
	withTLB := withoutTLB
	withTLB.TLBSize = 16
	systems, err := sweep.Run(context.Background(), 2, []vm.Config{withTLB, withoutTLB}, func(_ context.Context, cfg vm.Config) (*vm.System, error) {
		sys, err := vm.New(cfg)
		if err == nil {
			err = sys.AddProcess(1)
		}
		if err == nil {
			err = sys.Switch(1)
		}
		for i := 0; i < 16*8 && err == nil; i++ {
			_, err = sys.Access(uint64(i%8)*cfg.PageSize, false)
		}
		return sys, err
	})
	if err != nil {
		t.Fatal(err)
	}
	with, without := systems[0].EffectiveAccessTime(100, 8_000_000), systems[1].EffectiveAccessTime(100, 8_000_000)
	if with >= without {
		t.Errorf("TLB should lower EAT: with=%.1f without=%.1f", with, without)
	}
}

// TestClaimC6Shape: pipelining raises IPC toward 1 and speedup toward the
// depth; hazards take a predictable bite.
func TestClaimC6Shape(t *testing.T) {
	ideal := cpu.PipelineModel{Stages: 4}
	if ipc := ideal.IPC(1_000_000); ipc < 0.99 {
		t.Errorf("ideal 4-stage IPC %.3f, expected ~1", ipc)
	}
	if sp := ideal.Speedup(1_000_000); sp < 3.9 {
		t.Errorf("ideal 4-stage speedup %.2f, expected ~4", sp)
	}
	hazard := cpu.PipelineModel{Stages: 4, BranchFreq: 0.15, BranchPenalty: 3}
	if hazard.IPC(1_000_000) >= ideal.IPC(1_000_000) {
		t.Error("hazards should cost IPC")
	}
	// The unpipelined machine itself retires 1 instruction per 4 cycles.
	m := cpu.New()
	if err := m.LoadProgram([]cpu.Instr{
		{Op: cpu.OpLoadI, Rd: 1, Imm: 1},
		{Op: cpu.OpHalt},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.IPC() != 0.25 {
		t.Errorf("unpipelined IPC %.3f, expected 0.25", m.IPC())
	}
}
