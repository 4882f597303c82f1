package sweep

import (
	"context"
	"fmt"
	"math/rand"

	"cs31/internal/cache"
	"cs31/internal/life"
	"cs31/internal/memhier"
	"cs31/internal/sorting"
	"cs31/internal/vm"
)

// LifeCase is one point of the Game of Life claims grid: a board shape, a
// thread count, and a partitioning strategy, advanced a fixed number of
// generations from a seeded random start.
type LifeCase struct {
	Rows, Cols int
	Threads    int
	Partition  life.Partition
	Gens       int
	Seed       int64
	Density    float64
	Dist       bool // run the message-passing DistRunner instead of shared-memory threads (ByRows only)
}

func (c LifeCase) String() string {
	s := fmt.Sprintf("%dx%d/%v/threads-%d", c.Rows, c.Cols, c.Partition, c.Threads)
	if c.Dist {
		s = fmt.Sprintf("%dx%d/%v/ranks-%d/dist", c.Rows, c.Cols, c.Partition, c.Threads)
	}
	return s
}

// LifeResult is the deterministic outcome of one life case.
type LifeResult struct {
	Case        LifeCase
	Generation  int
	Population  int
	LiveUpdates int64 // cells that changed state over the run
}

// LifeGrid builds the cartesian product sizes × threads × partitions — the
// grid behind the paper's Figure-1/C1 claims — with shared generation
// count, seed, and density so every point starts from the same board.
func LifeGrid(sizes [][2]int, threads []int, partitions []life.Partition, gens int, seed int64, density float64) []LifeCase {
	cases := make([]LifeCase, 0, len(sizes)*len(threads)*len(partitions))
	for _, sz := range sizes {
		for _, tc := range threads {
			for _, part := range partitions {
				cases = append(cases, LifeCase{
					Rows: sz[0], Cols: sz[1],
					Threads: tc, Partition: part,
					Gens: gens, Seed: seed, Density: density,
				})
			}
		}
	}
	return cases
}

// DistLifeGrid is LifeGrid for the message-passing engine: the same
// cartesian product, but every multi-worker point runs DistRunner ranks
// instead of shared-memory threads (thread-count 1 stays the serial
// baseline either way, so dist speedup curves share their denominator
// with the shared-memory ones).
func DistLifeGrid(sizes [][2]int, ranks []int, gens int, seed int64, density float64) []LifeCase {
	cases := LifeGrid(sizes, ranks, []life.Partition{life.ByRows}, gens, seed, density)
	for i := range cases {
		cases[i].Dist = true
	}
	return cases
}

// RunLifeGrid fans the cases across workers. The engine choice belongs to
// life.Advance: thread-count 1 runs the serial engine (the speedup
// baseline and the differential reference), higher counts the sharded
// ParallelRunner, or the message-passing DistRunner for cases marked Dist.
// A Dist case partitioned ByCols is an error, since the DistRunner shards
// by rows only.
func RunLifeGrid(ctx context.Context, workers int, cases []LifeCase) ([]LifeResult, error) {
	return Run(ctx, workers, cases, func(ctx context.Context, c LifeCase) (LifeResult, error) {
		g, err := life.NewGrid(c.Rows, c.Cols, life.Torus)
		if err != nil {
			return LifeResult{}, err
		}
		g.Randomize(c.Seed, c.Density)
		stats, err := life.Advance(ctx, g, c.Threads, c.Partition, c.Dist, c.Gens)
		if err != nil {
			return LifeResult{}, fmt.Errorf("life case %s: %w", c, err)
		}
		return LifeResult{
			Case:        c,
			Generation:  g.Generation,
			Population:  g.Population(),
			LiveUpdates: stats.LiveUpdates,
		}, nil
	})
}

// SortCase is one point of the parallel merge sort scaling grid: an input
// size and a thread count, sorting a seeded random permutation.
type SortCase struct {
	N       int
	Threads int
	Seed    int64
}

func (c SortCase) String() string {
	return fmt.Sprintf("n-%d/threads-%d", c.N, c.Threads)
}

// SortResult is the deterministic outcome of one sort case. Checksum is a
// positional hash of the sorted output, so two cases over the same input
// agree iff their outputs are element-for-element identical.
type SortResult struct {
	Case     SortCase
	Sorted   bool
	Checksum uint64
}

// SortGrid builds the cartesian product sizes × threads with a shared
// seed, so every thread count at a given size sorts the same permutation
// — the grid behind the BenchmarkParallelMergeSort scaling claims.
func SortGrid(sizes, threads []int, seed int64) []SortCase {
	cases := make([]SortCase, 0, len(sizes)*len(threads))
	for _, n := range sizes {
		for _, tc := range threads {
			cases = append(cases, SortCase{N: n, Threads: tc, Seed: seed})
		}
	}
	return cases
}

// RunSortGrid fans the sort cases across workers; each case regenerates
// its input from the seed, sorts with its thread count, and reports a
// checksum for cross-thread-count differential comparison.
func RunSortGrid(ctx context.Context, workers int, cases []SortCase) ([]SortResult, error) {
	return Run(ctx, workers, cases, func(ctx context.Context, c SortCase) (SortResult, error) {
		if err := ctx.Err(); err != nil {
			return SortResult{}, fmt.Errorf("sort case %s canceled: %w", c, err)
		}
		rng := rand.New(rand.NewSource(c.Seed))
		a := make([]int, c.N)
		for i := range a {
			a[i] = rng.Intn(1<<20) - 1<<19
		}
		if err := sorting.ParallelMerge(a, c.Threads); err != nil {
			return SortResult{}, fmt.Errorf("sort case %s: %w", c, err)
		}
		res := SortResult{Case: c, Sorted: sorting.IsSorted(a)}
		const prime = 1099511628211
		h := uint64(14695981039346656037)
		for _, v := range a {
			h = (h ^ uint64(v)) * prime
		}
		res.Checksum = h
		return res, nil
	})
}

// CacheCase replays one access trace through one cache configuration.
type CacheCase struct {
	Name   string
	Config cache.Config
	Trace  []memhier.Access
}

// CacheResult is the deterministic outcome of one cache case.
type CacheResult struct {
	Case    CacheCase
	Stats   cache.Stats
	HitRate float64
}

// StrideGrid builds the loop-order exercise's workload grid: every cache
// configuration × row-major and column-major traversals of a rows×cols
// matrix of 4-byte elements (the C4 claim: traversal order against a
// small cache separates hit rates by an order of magnitude).
func StrideGrid(configs []cache.Config, rows, cols int) []CacheCase {
	const elemSize = 4
	cases := make([]CacheCase, 0, 2*len(configs))
	for _, cfg := range configs {
		label := fmt.Sprintf("size%d-assoc%d", cfg.SizeBytes, cfg.Assoc)
		cases = append(cases,
			CacheCase{
				Name:   label + "/rowmajor",
				Config: cfg,
				Trace:  memhier.MatrixTraceRowMajor(0, rows, cols, elemSize),
			},
			CacheCase{
				Name:   label + "/colmajor",
				Config: cfg,
				Trace:  memhier.MatrixTraceColMajor(0, rows, cols, elemSize),
			},
		)
	}
	return cases
}

// RunCacheGrid fans the cache cases across workers; each case gets a
// fresh simulator.
func RunCacheGrid(ctx context.Context, workers int, cases []CacheCase) ([]CacheResult, error) {
	return Run(ctx, workers, cases, func(ctx context.Context, c CacheCase) (CacheResult, error) {
		sim, err := cache.New(c.Config)
		if err != nil {
			return CacheResult{}, fmt.Errorf("%s: %w", c.Name, err)
		}
		stats := sim.RunTrace(c.Trace)
		return CacheResult{Case: c, Stats: stats, HitRate: stats.HitRate()}, nil
	})
}

// VMRef is one access of a VM sweep trace: which process touches which
// virtual address. Replaying switches the simulator to Pid first, so
// interleaved pids exercise context-switch TLB flushes.
type VMRef struct {
	Pid   vm.Pid
	Addr  uint64
	Write bool
}

// VMCase replays one reference trace through one VM configuration.
type VMCase struct {
	Name   string
	Config vm.Config
	Trace  []VMRef
}

// VMResult is the deterministic outcome of one VM case, including the
// course's effective-access-time figure for the supplied timing model.
type VMResult struct {
	Case       VMCase
	Stats      vm.Stats
	FaultRate  float64
	TLBHitRate float64
	EATNs      float64
}

// WalkTrace builds the C5 working-set walk: rounds sequential passes over
// the first pages of one process's address space, one access per page per
// pass — the pattern whose cost the TLB collapses once the working set
// fits.
func WalkTrace(pid vm.Pid, pages, rounds int, pageSize uint64) []VMRef {
	trace := make([]VMRef, 0, pages*rounds)
	for r := 0; r < rounds; r++ {
		for p := 0; p < pages; p++ {
			trace = append(trace, VMRef{Pid: pid, Addr: uint64(p) * pageSize})
		}
	}
	return trace
}

// RunVMGrid fans the VM cases across workers; each case gets a fresh
// system, processes are created on first reference, and EATNs uses the
// supplied memory and fault costs.
func RunVMGrid(ctx context.Context, workers int, cases []VMCase, memTimeNs, faultPenaltyNs float64) ([]VMResult, error) {
	return Run(ctx, workers, cases, func(ctx context.Context, c VMCase) (VMResult, error) {
		sys, err := vm.New(c.Config)
		if err != nil {
			return VMResult{}, fmt.Errorf("%s: %w", c.Name, err)
		}
		seen := make(map[vm.Pid]bool)
		for _, ref := range c.Trace {
			if !seen[ref.Pid] {
				if err := sys.AddProcess(ref.Pid); err != nil {
					return VMResult{}, fmt.Errorf("%s: %w", c.Name, err)
				}
				seen[ref.Pid] = true
			}
			if sys.Current() != ref.Pid {
				if err := sys.Switch(ref.Pid); err != nil {
					return VMResult{}, fmt.Errorf("%s: %w", c.Name, err)
				}
			}
			if _, err := sys.Access(ref.Addr, ref.Write); err != nil {
				return VMResult{}, fmt.Errorf("%s: addr %#x: %w", c.Name, ref.Addr, err)
			}
		}
		stats := sys.Stats()
		return VMResult{
			Case:       c,
			Stats:      stats,
			FaultRate:  stats.FaultRate(),
			TLBHitRate: stats.TLBHitRate(),
			EATNs:      sys.EffectiveAccessTime(memTimeNs, faultPenaltyNs),
		}, nil
	})
}
