package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cs31/internal/cache"
	"cs31/internal/life"
	"cs31/internal/memhier"
	"cs31/internal/pthread"
	"cs31/internal/sorting"
	"cs31/internal/vm"
)

// TestRunOrderAndCoverage pins the engine's contract: every item runs
// exactly once and results land at their item's index, regardless of how
// many workers race over the claim counter.
func TestRunOrderAndCoverage(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 3, 16, 200} {
		workers := workers
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			var calls atomic.Int64
			results, err := Run(context.Background(), workers, items, func(_ context.Context, item int) (int, error) {
				calls.Add(1)
				return item * item, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != int64(len(items)) {
				t.Errorf("fn ran %d times, want %d", got, len(items))
			}
			for i, r := range results {
				if r != i*i {
					t.Fatalf("results[%d] = %d, want %d", i, r, i*i)
				}
			}
		})
	}
}

// TestRunErrorIsLowestIndex pins deterministic error selection: the whole
// grid still runs, and the reported error belongs to the lowest failing
// index no matter which worker hit it first.
func TestRunErrorIsLowestIndex(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var ran atomic.Int64
	_, err := Run(context.Background(), 4, items, func(_ context.Context, item int) (int, error) {
		ran.Add(1)
		if item == 6 || item == 3 {
			return 0, fmt.Errorf("item %d failed", item)
		}
		return item, nil
	})
	if err == nil || err.Error() != "item 3 failed" {
		t.Errorf("err = %v, want the lowest-index failure (item 3)", err)
	}
	if got := ran.Load(); got != int64(len(items)) {
		t.Errorf("fn ran %d times, want %d (siblings must not be canceled)", got, len(items))
	}
}

func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, 2, []int{1, 2, 3}, func(_ context.Context, item int) (int, error) {
		return 0, fmt.Errorf("item error that must lose to ctx")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), 0, []int{1}, func(_ context.Context, i int) (int, error) { return i, nil }); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, err := Run[int, int](context.Background(), 1, []int{1}, nil); err == nil {
		t.Error("nil fn accepted")
	}
	res, err := Run(context.Background(), 4, nil, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(res) != 0 {
		t.Errorf("empty items: res=%v err=%v, want empty, nil", res, err)
	}
}

func TestMeasureScalingSeries(t *testing.T) {
	counts := []int{1, 2, 4}
	var order []int
	points, err := MeasureScaling(context.Background(), counts, func(_ context.Context, threads int) error {
		order = append(order, threads) // single worker: appends cannot race
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(counts) {
		t.Fatalf("got %d points, want %d", len(points), len(counts))
	}
	for i, p := range points {
		if p.Threads != counts[i] {
			t.Errorf("points[%d].Threads = %d, want %d", i, p.Threads, counts[i])
		}
		if p.Elapsed <= 0 || p.Speedup <= 0 || p.Efficiency <= 0 {
			t.Errorf("points[%d] has non-positive measurements: %+v", i, p)
		}
	}
	if points[0].Speedup != 1 {
		t.Errorf("base point speedup = %v, want 1", points[0].Speedup)
	}
	for i, tc := range order {
		if tc != counts[i] {
			t.Fatalf("measurement order %v, want %v (strictly sequential)", order, counts)
		}
	}
	if _, err := MeasureScaling(context.Background(), nil, func(context.Context, int) error { return nil }); err == nil {
		t.Error("empty thread counts accepted")
	}
	if _, err := MeasureScaling(context.Background(), []int{0}, func(context.Context, int) error { return nil }); err == nil {
		t.Error("thread count 0 accepted")
	}
}

// TestMeasureScalingParallelForSpeedup runs pthread.ParallelFor at 1, 2
// and 4 threads through MeasureScaling and checks, with no clock
// threshold, the two faults a speedup series can hide: a ParallelFor that
// serialized its blocks, and a series that timed its points against the
// wrong base. Every block of a point waits at a rendezvous of threads
// parties, which only blocks running at once can pass; a serialized
// ParallelFor leaves the first block waiting, and the bounded wait fails
// the point instead of hanging the test.
func TestMeasureScalingParallelForSpeedup(t *testing.T) {
	points, err := MeasureScaling(context.Background(), []int{1, 2, 4}, func(ctx context.Context, threads int) error {
		ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		var arrived, missed atomic.Int64
		all := make(chan struct{})
		err := pthread.ParallelFor(threads, threads, func(int) {
			if arrived.Add(1) == int64(threads) {
				close(all)
			}
			select {
			case <-all:
			case <-ctx.Done():
				missed.Add(1)
			}
		})
		if err == nil && missed.Load() > 0 {
			err = fmt.Errorf("%d blocks did not all run at once", threads)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if want := pthread.Speedup(points[0].Elapsed, p.Elapsed); p.Speedup != want {
			t.Errorf("%d threads: speedup %v, want %v against the first point's %v", p.Threads, p.Speedup, want, points[0].Elapsed)
		}
		if want := p.Speedup / float64(p.Threads); p.Efficiency != want {
			t.Errorf("%d threads: efficiency %v, want speedup/threads = %v", p.Threads, p.Efficiency, want)
		}
	}
}

// lifePoint is one run of the Life grid tests: a rows × cols board filled
// from seed at density, advanced gens generations on eng.
type lifePoint struct {
	rows, cols, gens int
	seed             int64
	density          float64
	eng              life.Engine
}

// board is p's seeded start board.
func (p lifePoint) board() (*life.Grid, error) {
	g, err := life.NewGrid(p.rows, p.cols, life.Torus)
	if err == nil {
		g.Randomize(p.seed, p.density)
	}
	return g, err
}

// lifeRun is what one point leaves: its board and the live updates its
// engine counted.
type lifeRun struct {
	g       *life.Grid
	updates int64
}

// runLife is the Life grid tests' pool item: p's board advanced on p's
// engine through life.Advance.
func runLife(ctx context.Context, p lifePoint) (lifeRun, error) {
	g, err := p.board()
	if err != nil {
		return lifeRun{}, err
	}
	stats, err := life.Advance(ctx, g, p.eng, p.gens)
	if err != nil {
		return lifeRun{}, fmt.Errorf("%+v: %w", p, err)
	}
	return lifeRun{g, stats.LiveUpdates}, nil
}

// checkLifeGrid runs every size × engine point through a pool of pool
// workers and holds each board, live-update count and generation to the
// serial Grid.Run's from the same start. Under -race this also runs
// independent engines on overlapping schedules.
func checkLifeGrid(t *testing.T, pool int, sizes [][2]int, engines []life.Engine, gens int, seed int64, density float64) {
	t.Helper()
	var pts []lifePoint
	for _, sz := range sizes {
		for _, e := range engines {
			pts = append(pts, lifePoint{sz[0], sz[1], gens, seed, density, e})
		}
	}
	runs, err := Run(context.Background(), pool, pts, runLife)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		serial, err := p.board()
		if err != nil {
			t.Fatal(err)
		}
		want, got := serial.Run(gens), runs[i]
		if got.updates != want || !got.g.Equal(serial) || got.g.Generation != gens {
			t.Errorf("%+v: %d live updates at generation %d, board equal %t; serial Grid.Run counted %d",
				p, got.updates, got.g.Generation, got.g.Equal(serial), want)
		}
	}
}

// TestLifeGridDifferential: for every partition × worker count × size,
// the parallel engine's sharded live-update reduction and final board
// must equal the serial Grid.Run's from the same start.
func TestLifeGridDifferential(t *testing.T) {
	var engines []life.Engine
	for _, w := range []int{1, 2, 3, 4, 8, 16, 33} {
		engines = append(engines, life.Engine{Workers: w}, life.Engine{Workers: w, Partition: life.ByCols})
	}
	checkLifeGrid(t, 8, [][2]int{{16, 16}, {19, 23}}, engines, 5, 11, 0.35)
}

// TestPackedLifeGridDifferential runs every engine — serial, parallel by
// rows and by 64-column word tiles, dist — on a 70-column board, whose
// rows pack into one full word and one ragged word.
func TestPackedLifeGridDifferential(t *testing.T) {
	checkLifeGrid(t, 4, [][2]int{{16, 70}}, []life.Engine{
		{Workers: 1}, {Workers: 1, Partition: life.ByCols},
		{Workers: 4}, {Workers: 4, Partition: life.ByCols},
		{Workers: 33}, {Workers: 33, Partition: life.ByCols},
		{Workers: 4, Dist: true},
	}, 5, 11, 0.35)
}

// TestRunLifeGridRejectsDistByCols: the dist engine shards by rows only,
// and the pool surfaces its refusal of a column-partitioned point instead
// of a run by rows.
func TestRunLifeGridRejectsDistByCols(t *testing.T) {
	pts := []lifePoint{{rows: 8, cols: 8, gens: 1, seed: 1, density: 0.3, eng: life.Engine{Workers: 2, Partition: life.ByCols, Dist: true}}}
	if _, err := Run(context.Background(), 1, pts, runLife); err == nil || !strings.Contains(err.Error(), "rows only") {
		t.Errorf("dist point partitioned by columns: err = %v, want a rows-only error", err)
	}
}

// TestDistLifeGridDifferential is the message-passing counterpart of
// TestLifeGridDifferential. Rank count 33 over 16-row boards exercises
// the surplus-rank clamp inside a pooled run.
func TestDistLifeGridDifferential(t *testing.T) {
	checkLifeGrid(t, 4, [][2]int{{16, 16}, {19, 23}}, []life.Engine{
		{Workers: 1, Dist: true}, {Workers: 2, Dist: true}, {Workers: 8, Dist: true}, {Workers: 33, Dist: true},
	}, 5, 11, 0.35)
}

// TestGridSurplusWorkersClampedDifferential is the regression test for the
// surplus-worker class in a pooled run: 64 workers over boards with as
// few as 2 rows must clamp and still match the serial engine bit for bit,
// on both the shared-memory and the message-passing engine.
func TestGridSurplusWorkersClampedDifferential(t *testing.T) {
	checkLifeGrid(t, 4, [][2]int{{2, 9}, {3, 3}, {5, 17}}, []life.Engine{
		{Workers: 64}, {Workers: 64, Partition: life.ByCols}, {Workers: 64, Dist: true},
	}, 6, 23, 0.4)
}

// TestSortGridDifferential: every thread count at a given size sorts the
// same seeded permutation through the pool, and each output must equal
// the serial sort of its own input.
func TestSortGridDifferential(t *testing.T) {
	input := func(n int) []int {
		rng := rand.New(rand.NewSource(13))
		a := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(1<<20) - 1<<19
		}
		return a
	}
	sortPoint := func(_ context.Context, p [2]int) ([]int, error) { // p is {n, threads}
		a := input(p[0])
		return a, sorting.ParallelMerge(a, p[1])
	}
	var pts [][2]int
	for _, n := range []int{0, 1, 100, 4096} {
		for _, threads := range []int{1, 2, 3, 8, 16} {
			pts = append(pts, [2]int{n, threads})
		}
	}
	outs, err := Run(context.Background(), 4, pts, sortPoint)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		want := input(p[0])
		slices.Sort(want)
		if !slices.Equal(outs[i], want) {
			t.Errorf("n %d on %d threads: output differs from the serial sort of its input", p[0], p[1])
		}
	}
	// The pool surfaces the kernel's typed error for a bad thread count.
	var tce *sorting.ThreadCountError
	if _, err := Run(context.Background(), 1, [][2]int{{10, 0}}, sortPoint); !errors.As(err, &tce) {
		t.Fatalf("threads=0: err = %v, want *sorting.ThreadCountError", err)
	}
}

// TestStrideGridShape is the pooled form of the C4 claim: a row-major
// traversal against a small direct-mapped cache hits nearly always, a
// column-major traversal of the same matrix almost never.
func TestStrideGridShape(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, BlockSize: 64, Assoc: 1}
	traces := [][]memhier.Access{memhier.MatrixTraceRowMajor(0, 64, 64, 4), memhier.MatrixTraceColMajor(0, 64, 64, 4)}
	rates, err := Run(context.Background(), 2, traces, func(_ context.Context, trace []memhier.Access) (float64, error) {
		sim, err := cache.New(cfg)
		if err != nil {
			return 0, err
		}
		return sim.RunTrace(trace).HitRate(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 2 {
		t.Fatalf("pool returned %d hit rates, want 2", len(rates))
	}
	if rates[0] < 0.9 {
		t.Errorf("row-major hit rate %.3f, want >= 0.9", rates[0])
	}
	if rates[1] > 0.1 {
		t.Errorf("column-major hit rate %.3f, want <= 0.1", rates[1])
	}
}

// TestVMGridShape is the pooled form of the C5 claim: the same
// working-set walk, 16 passes over 8 pages of one process, with and
// without a TLB.
func TestVMGridShape(t *testing.T) {
	noTLB := vm.Config{PageSize: 256, NumFrames: 16, NumPages: 32}
	withTLB := noTLB
	withTLB.TLBSize = 16
	systems, err := Run(context.Background(), 2, []vm.Config{withTLB, noTLB}, func(_ context.Context, cfg vm.Config) (*vm.System, error) {
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
	tlb, none := systems[0].Stats(), systems[1].Stats()
	if tlb.TLBHitRate() <= 0.9 {
		t.Errorf("TLB hit rate %.3f, want > 0.9 (8-page working set in a 16-entry TLB)", tlb.TLBHitRate())
	}
	if none.TLBHitRate() != 0 {
		t.Errorf("TLB-less hit rate %.3f, want 0", none.TLBHitRate())
	}
	if tlb.FaultRate() != none.FaultRate() {
		t.Errorf("fault rates differ with TLB (%v) vs without (%v): the TLB must not change paging", tlb.FaultRate(), none.FaultRate())
	}
	if with, without := systems[0].EffectiveAccessTime(100, 8e6), systems[1].EffectiveAccessTime(100, 8e6); with >= without {
		t.Errorf("EAT with TLB (%v ns) not below EAT without (%v ns)", with, without)
	}
}

// TestLifeGridCancellationTearsDown: canceling a pooled Life sweep
// mid-flight must stop every engine class — serial points at their next
// poll, parallel and dist points through their runners' own context
// plumbing — and surface the context error from the pool.
func TestLifeGridCancellationTearsDown(t *testing.T) {
	// Big serial points plus dist and parallel ones, enough generations
	// that the sweep cannot finish before the cancel lands.
	pts := []lifePoint{
		{rows: 256, cols: 256, gens: 10_000, seed: 1, density: 0.3, eng: life.Engine{Workers: 1}},
		{rows: 256, cols: 256, gens: 10_000, seed: 1, density: 0.3, eng: life.Engine{Workers: 4}},
		{rows: 256, cols: 256, gens: 10_000, seed: 1, density: 0.3, eng: life.Engine{Workers: 4, Dist: true}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, 3, pts, runLife)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled life sweep did not return")
	}
}
