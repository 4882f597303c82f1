package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cs31/internal/cache"
	"cs31/internal/life"
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

// TestLifeGridDifferential is the sweep-grid differential: for every
// partition × thread-count × size combination in the grid, the sharded
// per-thread LiveUpdates reduction and the final board must equal the
// serial Grid.Run's count and board from the same start state. The grid
// itself runs through the concurrent engine, so under -race this also
// exercises independent ParallelRunners on overlapping schedules.
func TestLifeGridDifferential(t *testing.T) {
	sizes := [][2]int{{16, 16}, {19, 23}}
	threads := []int{1, 2, 3, 4, 8, 16, 33}
	partitions := []life.Partition{life.ByRows, life.ByCols}
	const (
		gens    = 5
		seed    = 11
		density = 0.35
	)
	cases := LifeGrid(sizes, threads, partitions, gens, seed, density)
	if want := len(sizes) * len(threads) * len(partitions); len(cases) != want {
		t.Fatalf("grid has %d cases, want %d", len(cases), want)
	}
	results, err := RunLifeGrid(context.Background(), 8, cases)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		c := cases[i]
		if res.Case != c {
			t.Fatalf("results[%d] is for case %v, want %v (ordering)", i, res.Case, c)
		}
		serial, err := life.NewGrid(c.Rows, c.Cols, life.Torus)
		if err != nil {
			t.Fatal(err)
		}
		serial.Randomize(c.Seed, c.Density)
		wantUpdates := serial.Run(c.Gens)
		if res.LiveUpdates != wantUpdates {
			t.Errorf("%v: LiveUpdates = %d, serial engine counted %d", c, res.LiveUpdates, wantUpdates)
		}
		if res.Population != serial.Population() {
			t.Errorf("%v: population = %d, serial engine has %d", c, res.Population, serial.Population())
		}
		if res.Generation != gens {
			t.Errorf("%v: generation = %d, want %d", c, res.Generation, gens)
		}
	}
}

// TestPackedLifeGridDifferential runs every engine the sweep dispatches —
// serial, ParallelRunner by rows and by 64-column word tiles, DistRunner —
// on a 70-column board, whose rows pack into one full word and one ragged
// word, and holds each to the serial engine's count on the same seeded
// board.
func TestPackedLifeGridDifferential(t *testing.T) {
	const (
		gens    = 5
		seed    = 11
		density = 0.35
	)
	cases := LifeGrid([][2]int{{16, 70}}, []int{1, 4, 33}, []life.Partition{life.ByRows, life.ByCols}, gens, seed, density)
	dist := DistLifeGrid([][2]int{{16, 70}}, []int{4}, gens, seed, density)
	cases = append(cases, dist...)
	results, err := RunLifeGrid(context.Background(), 4, cases)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		c := cases[i]
		serial, err := life.NewGrid(c.Rows, c.Cols, life.Torus)
		if err != nil {
			t.Fatal(err)
		}
		serial.Randomize(c.Seed, c.Density)
		wantUpdates := serial.Run(c.Gens)
		if res.LiveUpdates != wantUpdates {
			t.Errorf("%v: LiveUpdates = %d, serial engine counted %d", c, res.LiveUpdates, wantUpdates)
		}
		if res.Population != serial.Population() {
			t.Errorf("%v: population = %d, serial engine has %d", c, res.Population, serial.Population())
		}
	}
}

// TestRunLifeGridRejectsDistByCols: the DistRunner shards by rows only,
// and the sweep is the one place a column-partitioned dist case can be
// built, so the sweep rejects it instead of silently running rows.
func TestRunLifeGridRejectsDistByCols(t *testing.T) {
	cases := []LifeCase{{Rows: 8, Cols: 8, Threads: 2, Partition: life.ByCols, Gens: 1, Seed: 1, Density: 0.3, Dist: true}}
	if _, err := RunLifeGrid(context.Background(), 1, cases); err == nil || !strings.Contains(err.Error(), "rows only") {
		t.Errorf("dist case partitioned by columns: err = %v, want a rows-only error", err)
	}
}

// TestDistLifeGridDifferential runs the message-passing engine's grid
// through the sweep pool and checks every point against the serial engine —
// the distributed counterpart of TestLifeGridDifferential. Rank count 33
// over 16-row boards exercises the surplus-rank clamp inside a grid run.
func TestDistLifeGridDifferential(t *testing.T) {
	sizes := [][2]int{{16, 16}, {19, 23}}
	ranks := []int{1, 2, 8, 33}
	const (
		gens    = 5
		seed    = 11
		density = 0.35
	)
	cases := DistLifeGrid(sizes, ranks, gens, seed, density)
	if want := len(sizes) * len(ranks); len(cases) != want {
		t.Fatalf("grid has %d cases, want %d", len(cases), want)
	}
	for _, c := range cases {
		if !c.Dist {
			t.Fatalf("case %v not marked Dist", c)
		}
		if c.Threads > 1 && !strings.HasSuffix(c.String(), "/dist") {
			t.Fatalf("case label %q does not name the dist engine", c.String())
		}
	}
	results, err := RunLifeGrid(context.Background(), 4, cases)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		c := cases[i]
		serial, err := life.NewGrid(c.Rows, c.Cols, life.Torus)
		if err != nil {
			t.Fatal(err)
		}
		serial.Randomize(c.Seed, c.Density)
		wantUpdates := serial.Run(c.Gens)
		if res.LiveUpdates != wantUpdates {
			t.Errorf("%v: LiveUpdates = %d, serial engine counted %d", c, res.LiveUpdates, wantUpdates)
		}
		if res.Population != serial.Population() {
			t.Errorf("%v: population = %d, serial engine has %d", c, res.Population, serial.Population())
		}
	}
}

// TestGridSurplusWorkersClampedDifferential is the regression test for the
// PR-3 surplus-worker class at the grid level: cases whose worker count far
// exceeds the partition extent (64 workers over boards with as few as 2
// rows) must clamp and still match the serial engine bit-for-bit, on both
// the shared-memory and the message-passing engine.
func TestGridSurplusWorkersClampedDifferential(t *testing.T) {
	sizes := [][2]int{{2, 9}, {3, 3}, {5, 17}}
	const (
		gens    = 6
		seed    = 23
		density = 0.4
	)
	shared := LifeGrid(sizes, []int{64}, []life.Partition{life.ByRows, life.ByCols}, gens, seed, density)
	dist := DistLifeGrid(sizes, []int{64}, gens, seed, density)
	cases := append(shared, dist...)
	results, err := RunLifeGrid(context.Background(), 4, cases)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		c := cases[i]
		serial, err := life.NewGrid(c.Rows, c.Cols, life.Torus)
		if err != nil {
			t.Fatal(err)
		}
		serial.Randomize(c.Seed, c.Density)
		wantUpdates := serial.Run(c.Gens)
		if res.LiveUpdates != wantUpdates {
			t.Errorf("%v: LiveUpdates = %d, serial engine counted %d", c, res.LiveUpdates, wantUpdates)
		}
		if res.Population != serial.Population() {
			t.Errorf("%v: population = %d, serial engine has %d", c, res.Population, serial.Population())
		}
	}
}

// TestStrideGridShape is the engine-driven form of the C4 claim: a
// row-major traversal against a small direct-mapped cache hits nearly
// always, a column-major traversal of the same matrix almost never.
// TestSortGridDifferential: every thread count at a given size sorts the
// same seeded permutation, so all checksums in a size row must agree and
// match a serial sorting.Merge reference.
func TestSortGridDifferential(t *testing.T) {
	sizes := []int{0, 1, 100, 4096}
	threads := []int{1, 2, 3, 8, 16}
	const seed = 13
	cases := SortGrid(sizes, threads, seed)
	if want := len(sizes) * len(threads); len(cases) != want {
		t.Fatalf("grid has %d cases, want %d", len(cases), want)
	}
	results, err := RunSortGrid(context.Background(), 4, cases)
	if err != nil {
		t.Fatal(err)
	}
	byN := make(map[int][]SortResult)
	for i, res := range results {
		if res.Case != cases[i] {
			t.Fatalf("results[%d] is for case %v, want %v (ordering)", i, res.Case, cases[i])
		}
		if !res.Sorted {
			t.Errorf("%v: output not sorted", res.Case)
		}
		byN[res.Case.N] = append(byN[res.Case.N], res)
	}
	for n, group := range byN {
		// Serial reference: same generator, sorted with the plain kernel.
		ref, err := RunSortGrid(context.Background(), 1, []SortCase{{N: n, Threads: 1, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range group {
			if res.Checksum != ref[0].Checksum {
				t.Errorf("%v: checksum %#x diverges from serial %#x", res.Case, res.Checksum, ref[0].Checksum)
			}
		}
	}
	// Grid propagates the kernel's typed error for bad thread counts.
	if _, err := RunSortGrid(context.Background(), 1, []SortCase{{N: 10, Threads: 0, Seed: seed}}); err == nil {
		t.Fatal("threads=0 case should fail")
	} else {
		var tce *sorting.ThreadCountError
		if !errors.As(err, &tce) {
			t.Fatalf("err = %v, want *sorting.ThreadCountError", err)
		}
	}
}

func TestStrideGridShape(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, BlockSize: 64, Assoc: 1}
	cases := StrideGrid([]cache.Config{cfg}, 64, 64)
	if len(cases) != 2 {
		t.Fatalf("grid has %d cases, want 2", len(cases))
	}
	results, err := RunCacheGrid(context.Background(), 2, cases)
	if err != nil {
		t.Fatal(err)
	}
	row, col := results[0], results[1]
	if row.HitRate < 0.9 {
		t.Errorf("row-major hit rate %.3f, want >= 0.9", row.HitRate)
	}
	if col.HitRate > 0.1 {
		t.Errorf("column-major hit rate %.3f, want <= 0.1", col.HitRate)
	}
}

// TestVMGridShape is the engine-driven form of the C5 claim: the same
// working-set walk with and without a TLB.
func TestVMGridShape(t *testing.T) {
	cfg := vm.Config{PageSize: 256, NumFrames: 16, NumPages: 32}
	trace := WalkTrace(1, 8, 16, cfg.PageSize)
	withTLB, withoutTLB := cfg, cfg
	withTLB.TLBSize = 16
	cases := []VMCase{
		{Name: "tlb-16", Config: withTLB, Trace: trace},
		{Name: "tlb-0", Config: withoutTLB, Trace: trace},
	}
	results, err := RunVMGrid(context.Background(), 2, cases, 100, 8e6)
	if err != nil {
		t.Fatal(err)
	}
	tlb, noTLB := results[0], results[1]
	if tlb.TLBHitRate <= 0.9 {
		t.Errorf("TLB hit rate %.3f, want > 0.9 (8-page working set in a 16-entry TLB)", tlb.TLBHitRate)
	}
	if noTLB.TLBHitRate != 0 {
		t.Errorf("TLB-less hit rate %.3f, want 0", noTLB.TLBHitRate)
	}
	if tlb.FaultRate != noTLB.FaultRate {
		t.Errorf("fault rates differ with TLB (%v) vs without (%v): the TLB must not change paging", tlb.FaultRate, noTLB.FaultRate)
	}
	if tlb.EATNs >= noTLB.EATNs {
		t.Errorf("EAT with TLB (%v ns) not below EAT without (%v ns)", tlb.EATNs, noTLB.EATNs)
	}
}

// TestLifeGridCancellationTearsDown: canceling a life sweep mid-flight
// must stop every engine class — serial cases at their next chunk poll,
// parallel and dist cases through their runners' own context plumbing —
// and surface the context error from the sweep.
func TestLifeGridCancellationTearsDown(t *testing.T) {
	// Big serial cases plus dist and parallel cases, enough generations
	// that the sweep cannot finish before the cancel lands.
	cases := []LifeCase{
		{Rows: 256, Cols: 256, Threads: 1, Gens: 10_000, Seed: 1, Density: 0.3},
		{Rows: 256, Cols: 256, Threads: 4, Gens: 10_000, Seed: 1, Density: 0.3},
		{Rows: 256, Cols: 256, Threads: 4, Gens: 10_000, Seed: 1, Density: 0.3, Dist: true},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunLifeGrid(ctx, 3, cases)
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
