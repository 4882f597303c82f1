package main

import (
	"math"
	"testing"

	"cs31/internal/labd"
)

func TestCheckPool(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {-1, -1}, {1, 1}, {labd.MaxWorkers, labd.MaxQueueDepth}} {
		if err := checkPool(c[0], c[1]); err != nil {
			t.Errorf("checkPool(%d, %d): %v", c[0], c[1], err)
		}
	}
	for _, c := range [][2]int{
		{labd.MaxWorkers + 1, 0}, {0, labd.MaxQueueDepth + 1},
		{1 << 62, 0}, {0, math.MaxInt},
	} {
		if err := checkPool(c[0], c[1]); err == nil {
			t.Errorf("checkPool(%d, %d) accepted, want an error", c[0], c[1])
		}
	}
}
