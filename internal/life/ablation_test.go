package life

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkPartitionAblation compares row vs column partitioning at
// several thread counts — the design comparison Lab 10 asks students to
// make. (Row partitioning walks memory contiguously per thread; column
// partitioning strides, which costs real caches. The simulator's arrays
// make the effect visible in wall-clock time on any host.)
func BenchmarkPartitionAblation(b *testing.B) {
	for _, part := range []Partition{ByRows, ByCols} {
		for _, threads := range []int{2, 4} {
			part, threads := part, threads
			b.Run(fmt.Sprintf("%v-threads-%d", part, threads), func(b *testing.B) {
				g, err := NewGrid(128, 128, Torus)
				if err != nil {
					b.Fatal(err)
				}
				g.Randomize(1, 0.3)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pr := &ParallelRunner{G: g, Threads: threads, partition: part}
					if _, err := pr.RunCtx(context.Background(), 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
