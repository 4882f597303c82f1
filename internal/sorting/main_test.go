package sorting

import (
	"testing"

	"cs31/internal/leakcheck"
)

// TestMain runs the package's tests under the leak check: after the last
// test no pthread thread is live and the goroutine count is back to its
// value before the first, so every ParallelMerge thread must be joined.
func TestMain(m *testing.M) { leakcheck.Main(m) }
