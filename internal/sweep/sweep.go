// Package sweep is a fork-join pool for parameter sweeps: Run fans a
// slice of points across a bounded set of pthread.ForkJoin workers and
// returns the results in input order regardless of scheduling. A caller
// passes its points and a closure that runs one of them; the pool knows
// nothing of what the closure simulates.
//
// Timed speedup series go through the same pool with a single worker
// (MeasureScaling, the one scaling series cmd/life -bench, labd's life
// speedup run and examples/gameoflife use): co-running wall-clock
// measurements would contend for the cores being measured, so the timed
// path trades parallelism for clean numbers while keeping the pool's
// ordering and cancellation semantics.
package sweep

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"cs31/internal/pthread"
)

// Run evaluates fn over every item on at most workers pthread.ForkJoin ids
// (the caller is id 0) and returns the results in item order. A sweep
// wants the full grid, so one item's failure does not cancel its
// siblings; the error returned is the lowest-index failure, which makes
// the outcome independent of scheduling. A canceled ctx skips items that
// have not started and wins over item errors.
func Run[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, item T) (R, error)) ([]R, error) {
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil item function")
	}
	if workers < 1 {
		return nil, fmt.Errorf("sweep: need at least 1 worker, got %d", workers)
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	errs := make([]error, len(items))
	// Workers claim the next unclaimed index with one atomic add — the
	// pool needs no queue, no channel, and no lock, and a slow item only
	// delays itself. ForkJoin cannot fail here (at least one id, and the
	// body returns nil): item errors land in errs, reduced below by index.
	var next atomic.Int64
	_ = pthread.ForkJoin(min(workers, len(items)), func(int) error {
		for i := int(next.Add(1)) - 1; i < len(items); i = int(next.Add(1)) - 1 {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = fn(ctx, items[i])
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// MeasureScaling times work(threads) for each entry of threadCounts and
// reports speedup and parallel efficiency relative to the first entry
// (conventionally 1 thread). Points run strictly one at a time — through
// Run with a single worker, so cancellation and ordering behave like any
// other sweep — because overlapping wall-clock measurements would steal
// cores from each other.
func MeasureScaling(ctx context.Context, threadCounts []int, work func(ctx context.Context, threads int) error) ([]pthread.ScalingPoint, error) {
	if len(threadCounts) == 0 {
		return nil, fmt.Errorf("sweep: no thread counts to measure")
	}
	elapsed, err := Run(ctx, 1, threadCounts, func(ctx context.Context, threads int) (time.Duration, error) {
		if threads < 1 {
			return 0, fmt.Errorf("sweep: invalid thread count %d", threads)
		}
		start := time.Now()
		if err := work(ctx, threads); err != nil {
			return 0, fmt.Errorf("sweep: %d threads: %w", threads, err)
		}
		d := time.Since(start)
		if d <= 0 {
			d = time.Nanosecond // clock granularity guard, keeps ratios finite
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	base := elapsed[0]
	points := make([]pthread.ScalingPoint, len(threadCounts))
	for i, tc := range threadCounts {
		points[i] = pthread.ScalingPoint{
			Threads:    tc,
			Elapsed:    elapsed[i],
			Speedup:    pthread.Speedup(base, elapsed[i]),
			Efficiency: pthread.Efficiency(base, elapsed[i], tc),
		}
	}
	return points, nil
}
