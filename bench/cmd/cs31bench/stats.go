package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between the closest ranks. An empty sample has no
// quantile; it reads as 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	// Equal neighbours short-circuit so two +Inf samples (failed
	// requests) interpolate to +Inf, not NaN.
	if frac == 0 || sorted[lo] == sorted[lo+1] {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles computes the three cut points the way Python's
// statistics.quantiles(xs, n=4) does with its default exclusive method,
// so spreads printed here match ones computed with Python's statistics.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// beyond counts the samples strictly above v, the sample size a tail
// percentile rests on.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// ratio divides, reading 0 when the base is 0, so a metric a workload
// does not exercise prints 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
