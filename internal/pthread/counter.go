package pthread

import (
	"fmt"
	"sync/atomic"
)

// The shared-counter experiment: the course's first data-race example.
// threads threads each increment a shared counter n times under one of
// four synchronization strategies; the racy strategy loses updates on real
// multicore hardware, which is the whole point of the demonstration.

// CounterMode selects the synchronization strategy.
type CounterMode int

// Counter synchronization strategies, in lecture order.
const (
	Racy    CounterMode = iota // unsynchronized read-modify-write
	Mutexed                    // one mutex around the increment
	Atomic                     // hardware atomic add
	Sharded                    // per-thread counters, summed after join
)

func (m CounterMode) String() string {
	return [...]string{"racy", "mutex", "atomic", "sharded"}[m]
}

// CounterResult reports one run of the experiment.
type CounterResult struct {
	Mode     CounterMode
	Threads  int
	PerEach  int
	Expected int64
	Final    int64
}

// LostUpdates is Expected - Final (positive only for racy runs).
func (r CounterResult) LostUpdates() int64 { return r.Expected - r.Final }

// ShardStride spaces per-thread accumulators one cache line apart (8
// int64s = 64 bytes): slot id*ShardStride of a shared slice is thread id's,
// so no two threads' stores false-share a line.
const ShardStride = 8

// RunCounter performs the experiment: the mode picks each thread's body
// and how the final count is read, and one ForkJoin runs the threads.
func RunCounter(mode CounterMode, threads, perThread int) (CounterResult, error) {
	if threads < 1 || perThread < 1 {
		return CounterResult{}, fmt.Errorf("pthread: counter needs positive threads and count")
	}
	res := CounterResult{
		Mode: mode, Threads: threads, PerEach: perThread,
		Expected: int64(threads) * int64(perThread),
	}
	var body func(id int) error
	var final func() int64
	switch mode {
	case Racy:
		// Intentionally unsynchronized: the classic lost-update race. The
		// counter is read and written non-atomically from many goroutines.
		var counter int64
		body = func(int) error {
			for j := 0; j < perThread; j++ {
				counter = counter + 1 // data race, on purpose
			}
			return nil
		}
		final = func() int64 { return counter }

	case Mutexed:
		var counter int64
		mu := NewMutex("counter")
		body = func(int) error {
			for j := 0; j < perThread; j++ {
				if err := mu.Lock(); err != nil {
					return err
				}
				counter++
				if err := mu.Unlock(); err != nil {
					return err
				}
			}
			return nil
		}
		final = func() int64 { return counter }

	case Atomic:
		var counter atomic.Int64
		body = func(int) error {
			for j := 0; j < perThread; j++ {
				counter.Add(1)
			}
			return nil
		}
		final = counter.Load

	case Sharded:
		shards := make([]int64, threads*ShardStride)
		body = func(id int) error {
			for j := 0; j < perThread; j++ {
				shards[id*ShardStride]++
			}
			return nil
		}
		final = func() (sum int64) {
			for id := 0; id < threads; id++ {
				sum += shards[id*ShardStride]
			}
			return sum
		}

	default:
		return res, fmt.Errorf("pthread: unknown counter mode %d", mode)
	}
	if err := ForkJoin(threads, body); err != nil {
		return res, err
	}
	res.Final = final()
	return res, nil
}
