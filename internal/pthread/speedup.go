package pthread

import (
	"fmt"
	"time"
)

// Speedup is the course's definition: serial time / parallel time.
func Speedup(serial, parallel time.Duration) float64 {
	if parallel <= 0 {
		return 0
	}
	return float64(serial) / float64(parallel)
}

// Efficiency is speedup divided by thread count.
func Efficiency(serial, parallel time.Duration, threads int) float64 {
	if threads <= 0 {
		return 0
	}
	return Speedup(serial, parallel) / float64(threads)
}

// AmdahlSpeedup is Amdahl's law: with serial fraction s of the work and n
// processors, speedup = 1 / (s + (1-s)/n).
func AmdahlSpeedup(serialFraction float64, n int) (float64, error) {
	if serialFraction < 0 || serialFraction > 1 {
		return 0, fmt.Errorf("pthread: serial fraction %v outside [0,1]", serialFraction)
	}
	if n < 1 {
		return 0, fmt.Errorf("pthread: need at least 1 processor")
	}
	return 1 / (serialFraction + (1-serialFraction)/float64(n)), nil
}

// AmdahlLimit is the asymptotic bound 1/s as n grows without bound.
func AmdahlLimit(serialFraction float64) (float64, error) {
	if serialFraction <= 0 || serialFraction > 1 {
		return 0, fmt.Errorf("pthread: serial fraction %v outside (0,1]", serialFraction)
	}
	return 1 / serialFraction, nil
}

// GustafsonSpeedup is Gustafson's law for scaled workloads:
// speedup = n - s*(n-1).
func GustafsonSpeedup(serialFraction float64, n int) (float64, error) {
	if serialFraction < 0 || serialFraction > 1 {
		return 0, fmt.Errorf("pthread: serial fraction %v outside [0,1]", serialFraction)
	}
	if n < 1 {
		return 0, fmt.Errorf("pthread: need at least 1 processor")
	}
	return float64(n) - serialFraction*float64(n-1), nil
}

// BlockRange partitions n items across parties threads into contiguous
// blocks (the row-partitioning scheme of the parallel Game of Life lab):
// thread id gets [lo, hi). Remainder items go one each to the first
// threads, keeping block sizes within one of each other.
func BlockRange(id, parties, n int) (lo, hi int) {
	if parties <= 0 || id < 0 || id >= parties || n <= 0 {
		return 0, 0
	}
	base := n / parties
	rem := n % parties
	lo = id*base + min(id, rem)
	size := base
	if id < rem {
		size++
	}
	return lo, lo + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ParallelFor runs body(i) for i in [0, n) across parties threads using
// block partitioning (ForkJoin: the caller runs the first block) — the
// parallel-loop idiom the course builds the Game of Life lab on.
func ParallelFor(parties, n int, body func(i int)) error {
	return ForkJoin(parties, func(id int) error {
		lo, hi := BlockRange(id, parties, n)
		for i := lo; i < hi; i++ {
			body(i)
		}
		return nil
	})
}

// ScalingPoint is one row of a speedup table.
type ScalingPoint struct {
	Threads    int
	Elapsed    time.Duration
	Speedup    float64
	Efficiency float64
}

// MeasureScaling times work(threads) for each thread count and reports
// speedup relative to the first entry (usually 1 thread) — the measurement
// students make in Lab 10.
func MeasureScaling(threadCounts []int, work func(threads int)) ([]ScalingPoint, error) {
	if len(threadCounts) == 0 {
		return nil, fmt.Errorf("pthread: no thread counts")
	}
	points := make([]ScalingPoint, 0, len(threadCounts))
	var base time.Duration
	for i, tc := range threadCounts {
		if tc < 1 {
			return nil, fmt.Errorf("pthread: invalid thread count %d", tc)
		}
		start := time.Now()
		work(tc)
		elapsed := time.Since(start)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		if i == 0 {
			base = elapsed
		}
		points = append(points, ScalingPoint{
			Threads:    tc,
			Elapsed:    elapsed,
			Speedup:    Speedup(base, elapsed),
			Efficiency: Efficiency(base, elapsed, tc),
		})
	}
	return points, nil
}
