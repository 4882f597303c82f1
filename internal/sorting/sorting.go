// Package sorting implements Lab 2's O(N²) sorting algorithms (the ones
// students bring from CS1) plus a parallel merge sort built on the pthread
// package, used by the speedup benchmarks to contrast algorithmic and
// parallel improvements.
package sorting

import (
	"fmt"
	"sort"

	"cs31/internal/pthread"
)

// ThreadCountError reports a non-positive thread count passed to
// ParallelMerge. Surplus threads are clamped, not rejected, so this is
// the only thread-count condition callers can hit.
type ThreadCountError struct {
	Threads int
}

func (e *ThreadCountError) Error() string {
	return fmt.Sprintf("sorting: thread count %d is not positive", e.Threads)
}

// Bubble sorts in place with adjacent swaps, O(N²) with early exit.
func Bubble(a []int) {
	for n := len(a); n > 1; {
		swapped := 0
		for i := 1; i < n; i++ {
			if a[i-1] > a[i] {
				a[i-1], a[i] = a[i], a[i-1]
				swapped = i
			}
		}
		n = swapped
	}
}

// Insertion sorts in place by insertion, O(N²).
func Insertion(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Selection sorts in place by repeated minimum selection, O(N²).
func Selection(a []int) {
	for i := 0; i < len(a)-1; i++ {
		m := i
		for j := i + 1; j < len(a); j++ {
			if a[j] < a[m] {
				m = j
			}
		}
		a[i], a[m] = a[m], a[i]
	}
}

// Merge sorts in place via top-down merge sort with a scratch buffer.
func Merge(a []int) {
	scratch := make([]int, len(a))
	mergeSort(a, scratch)
}

func mergeSort(a, scratch []int) {
	if len(a) < 32 {
		Insertion(a)
		return
	}
	mid := len(a) / 2
	mergeSort(a[:mid], scratch[:mid])
	mergeSort(a[mid:], scratch[mid:])
	merge(a, mid, scratch)
}

func merge(a []int, mid int, scratch []int) {
	copy(scratch, a)
	i, j := 0, mid
	for k := 0; k < len(a); k++ {
		switch {
		case i >= mid:
			a[k] = scratch[j]
			j++
		case j >= len(a):
			a[k] = scratch[i]
			i++
		case scratch[i] <= scratch[j]:
			a[k] = scratch[i]
			i++
		default:
			a[k] = scratch[j]
			j++
		}
	}
}

// ParallelMerge sorts using threads worker threads: the slice is block-
// partitioned, each block sorted by its own id of one pthread.ForkJoin (the
// caller takes block 0), then blocks are merged pairwise in parallel
// rounds, one ForkJoin each — a straightforward data-parallel
// decomposition in the style of the course's Game of Life lab.
//
// threads <= 0 returns a *ThreadCountError; threads beyond len(a) is
// clamped (same surplus-clamp discipline as pthread.ParallelRunner),
// since a block partition can give at most one element per thread.
func ParallelMerge(a []int, threads int) error {
	if threads <= 0 {
		return &ThreadCountError{Threads: threads}
	}
	if threads > len(a) {
		threads = len(a)
	}
	if threads <= 1 || len(a) < 2*threads {
		Merge(a)
		return nil
	}
	type span struct{ lo, hi int }
	spans := make([]span, threads)
	for id := range spans {
		spans[id].lo, spans[id].hi = pthread.BlockRange(id, threads, len(a))
	}
	// Sort each block concurrently.
	if err := pthread.ForkJoin(len(spans), func(id int) error {
		Merge(a[spans[id].lo:spans[id].hi])
		return nil
	}); err != nil {
		return err
	}
	// Merge adjacent sorted runs in parallel rounds, one thread per pair;
	// an odd run out waits for the next round.
	scratch := make([]int, len(a))
	for len(spans) > 1 {
		pairs := len(spans) / 2
		if err := pthread.ForkJoin(pairs, func(p int) error {
			left, right := spans[2*p], spans[2*p+1]
			merge(a[left.lo:right.hi], left.hi-left.lo, scratch[left.lo:right.hi])
			return nil
		}); err != nil {
			return err
		}
		for p := 0; p < pairs; p++ {
			spans[p] = span{spans[2*p].lo, spans[2*p+1].hi}
		}
		if len(spans)%2 == 1 {
			spans[pairs] = spans[len(spans)-1]
		}
		spans = spans[:(len(spans)+1)/2]
	}
	return nil
}

// IsSorted reports whether a is in nondecreasing order.
func IsSorted(a []int) bool { return sort.IntsAreSorted(a) }
