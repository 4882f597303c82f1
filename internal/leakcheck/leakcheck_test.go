package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"cs31/internal/pthread"
)

// TestWait: a goroutine or a pthread thread still running past the
// timeout is reported, and once it has returned the check passes.
func TestWait(t *testing.T) {
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		<-release
		close(done)
	}()
	if err := wait(before, 20*time.Millisecond); err == nil || !strings.Contains(err.Error(), "goroutines run") {
		t.Errorf("a blocked goroutine: wait returned %v, want a leak", err)
	}
	close(release)
	<-done
	if err := wait(before, time.Second); err != nil {
		t.Errorf("after the goroutine returned: %v", err)
	}

	release = make(chan struct{})
	th := pthread.Create(func() interface{} { <-release; return nil })
	if err := wait(before, 20*time.Millisecond); err == nil || !strings.Contains(err.Error(), "1 pthread threads are live") {
		t.Errorf("a running thread: wait returned %v, want a leak", err)
	}
	close(release)
	th.Join()
	if err := wait(before, time.Second); err != nil {
		t.Errorf("after Join: %v", err)
	}
}
