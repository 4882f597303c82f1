package pthread

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSpeedupAndEfficiency(t *testing.T) {
	if s := Speedup(10*time.Second, 2*time.Second); s != 5 {
		t.Errorf("speedup = %v", s)
	}
	if s := Speedup(time.Second, 0); s != 0 {
		t.Errorf("zero parallel time: %v", s)
	}
	if e := Efficiency(8*time.Second, 2*time.Second, 4); e != 1 {
		t.Errorf("efficiency = %v", e)
	}
	if e := Efficiency(time.Second, time.Second, 0); e != 0 {
		t.Errorf("zero threads: %v", e)
	}
}

func TestAmdahlKnownValues(t *testing.T) {
	cases := []struct {
		s    float64
		n    int
		want float64
	}{
		{0, 16, 16}, // perfectly parallel: linear
		{1, 16, 1},  // fully serial: no speedup
		{0.1, 10, 1 / (0.1 + 0.9/10.0)},
		{0.05, 16, 1 / (0.05 + 0.95/16.0)},
	}
	for _, c := range cases {
		got, err := AmdahlSpeedup(c.s, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Amdahl(%v, %d) = %v, want %v", c.s, c.n, got, c.want)
		}
	}
	if _, err := AmdahlSpeedup(-0.1, 4); err == nil {
		t.Error("negative fraction should fail")
	}
	if _, err := AmdahlSpeedup(0.5, 0); err == nil {
		t.Error("zero processors should fail")
	}
}

func TestAmdahlLimit(t *testing.T) {
	l, err := AmdahlLimit(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if l != 10 {
		t.Errorf("limit = %v", l)
	}
	if _, err := AmdahlLimit(0); err == nil {
		t.Error("zero fraction has unbounded limit; should error")
	}
}

// Property: Amdahl speedup is monotonic in n and bounded by both n and 1/s.
func TestAmdahlBounds(t *testing.T) {
	f := func(sRaw uint8, nRaw uint8) bool {
		s := float64(sRaw%100)/100.0 + 0.01 // (0, 1]
		if s > 1 {
			s = 1
		}
		n := int(nRaw%64) + 1
		sp, err := AmdahlSpeedup(s, n)
		if err != nil {
			return false
		}
		sp2, err := AmdahlSpeedup(s, n+1)
		if err != nil {
			return false
		}
		limit, err := AmdahlLimit(s)
		if err != nil {
			return false
		}
		return sp <= float64(n)+1e-9 && sp <= limit+1e-9 && sp2 >= sp-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGustafson(t *testing.T) {
	g, err := GustafsonSpeedup(0.1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-(16-0.1*15)) > 1e-12 {
		t.Errorf("Gustafson = %v", g)
	}
	// Gustafson always >= Amdahl for the same parameters.
	a, _ := AmdahlSpeedup(0.1, 16)
	if g < a {
		t.Errorf("Gustafson %v < Amdahl %v", g, a)
	}
	if _, err := GustafsonSpeedup(2, 4); err == nil {
		t.Error("fraction > 1 should fail")
	}
	if _, err := GustafsonSpeedup(0.5, 0); err == nil {
		t.Error("zero processors should fail")
	}
}

func TestBlockRange(t *testing.T) {
	// 10 items over 3 threads: 4, 3, 3.
	cases := []struct{ id, lo, hi int }{{0, 0, 4}, {1, 4, 7}, {2, 7, 10}}
	for _, c := range cases {
		lo, hi := BlockRange(c.id, 3, 10)
		if lo != c.lo || hi != c.hi {
			t.Errorf("BlockRange(%d, 3, 10) = [%d, %d), want [%d, %d)", c.id, lo, hi, c.lo, c.hi)
		}
	}
	if lo, hi := BlockRange(5, 3, 10); lo != 0 || hi != 0 {
		t.Error("out-of-range id should return empty")
	}
	if lo, hi := BlockRange(0, 0, 10); lo != 0 || hi != 0 {
		t.Error("zero parties should return empty")
	}
}

// Property: block ranges tile [0, n) exactly — no gaps, no overlap — and
// sizes differ by at most one (load balance).
func TestBlockRangePartitionProperty(t *testing.T) {
	f := func(pRaw, nRaw uint8) bool {
		parties := int(pRaw%16) + 1
		n := int(nRaw) + 1
		covered := make([]int, n)
		minSize, maxSize := n+1, -1
		for id := 0; id < parties; id++ {
			lo, hi := BlockRange(id, parties, n)
			size := hi - lo
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return maxSize-minSize <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	const n = 1000
	marks := make([]atomic.Int32, n)
	for _, threads := range []int{1, 2, 4, 7} {
		for i := range marks {
			marks[i].Store(0)
		}
		if err := ParallelFor(threads, n, func(i int) { marks[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for i := range marks {
			if marks[i].Load() != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, marks[i].Load())
			}
		}
	}
	if err := ParallelFor(0, 10, func(int) {}); err == nil {
		t.Error("zero threads should fail")
	}
}
