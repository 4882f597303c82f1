// Package leakcheck is the goroutine-leak check the life, msgpass,
// pthread, sweep, sorting and labd test binaries run after their last
// test: every pthread thread has finished, and the runtime's goroutine
// count is back to its value before the first test. It turns "cancellation never leaks a
// goroutine" from a property a few tests poll for into one every test in
// the package is held to.
package leakcheck

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"cs31/internal/pthread"
)

// settle bounds how long the check waits for goroutines that are still
// on their way out when the last test returns, such as a canceled worker
// or the reader of a connection a test server just closed.
const settle = 2 * time.Second

// Main runs the package's tests, then the check. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// On a leak it prints what is still running and a dump of every
// goroutine's stack to stderr, and the test binary exits non-zero.
func Main(m *testing.M) {
	// os/signal's watcher goroutine starts on the first Notify and never
	// exits. The fuzzing engine calls Notify, so start the watcher before
	// counting, or every -fuzz run would read as a leak.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	signal.Stop(sig)
	before := runtime.NumGoroutine()
	code := m.Run()
	if err := wait(before, settle); err != nil {
		fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		code = max(code, 1)
	}
	os.Exit(code)
}

// wait polls until no pthread thread is live and at most before
// goroutines run, and reports what is left if that takes past timeout.
func wait(before int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		live, n := pthread.Live(), runtime.NumGoroutine()
		if live == 0 && n <= before {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("after the tests %d pthread threads are live and %d goroutines run, %d before them", live, n, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
