package pthread_test

import (
	"testing"

	"cs31/internal/leakcheck"
)

// TestMain runs the package's tests under the leak check: after the last
// test no pthread thread is live and the goroutine count is back to its
// value before the first. leakcheck imports pthread, so this file is in
// the external test package.
func TestMain(m *testing.M) { leakcheck.Main(m) }
