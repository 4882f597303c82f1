package labd

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cs31/internal/obs"
)

func TestSchedulerRunsJobs(t *testing.T) {
	s := NewScheduler(4, 8, obs.NewRegistry(), nil)
	defer s.Shutdown(context.Background())

	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.Submit(context.Background(), func(context.Context) {
				ran.Add(1)
			})
			if err != nil && !errors.Is(err, ErrQueueFull) {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if ran.Load() != st.Completed {
		t.Errorf("ran %d but completed counter says %d", ran.Load(), st.Completed)
	}
	if st.Submitted != st.Completed {
		t.Errorf("submitted %d != completed %d with no cancellations", st.Submitted, st.Completed)
	}
	if got := ran.Load() + st.Rejected; got != 50 {
		t.Errorf("completed+rejected = %d, want 50", got)
	}
}

func TestSchedulerQueueFull(t *testing.T) {
	s := NewScheduler(1, 1, obs.NewRegistry(), nil)
	defer s.Shutdown(context.Background())

	// Wedge the single worker.
	block := make(chan struct{})
	started := make(chan struct{})
	go s.Submit(context.Background(), func(context.Context) {
		close(started)
		<-block
	})
	<-started

	// Fill the queue's single slot.
	done := make(chan struct{})
	go func() {
		s.Submit(context.Background(), func(context.Context) {})
		close(done)
	}()
	// Wait until the filler job is actually queued.
	deadline := time.After(2 * time.Second)
	for s.Stats().QueueLen == 0 {
		select {
		case <-deadline:
			t.Fatal("filler job never queued")
		case <-time.After(time.Millisecond):
		}
	}

	// The next submit must bounce.
	if err := s.Submit(context.Background(), func(context.Context) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if s.Stats().Rejected != 1 {
		t.Errorf("rejected = %d, want 1", s.Stats().Rejected)
	}

	close(block)
	<-done
}

// TestSchedulerGauges pins the live load gauges: a wedged worker shows up
// in Active, a queued job ratchets the high-watermark, and both settle once
// the work drains (Active back to 0, QueueHWM sticky).
func TestSchedulerGauges(t *testing.T) {
	s := NewScheduler(1, 2, obs.NewRegistry(), nil)
	defer s.Shutdown(context.Background())

	if st := s.Stats(); st.Active != 0 || st.QueueHWM != 0 {
		t.Fatalf("idle gauges %+v, want Active=0 QueueHWM=0", st)
	}

	// Wedge the single worker so it registers as an active job.
	block := make(chan struct{})
	started := make(chan struct{})
	go s.Submit(context.Background(), func(context.Context) {
		close(started)
		<-block
	})
	<-started
	if got := s.Stats().Active; got != 1 {
		t.Errorf("active = %d with a wedged worker, want 1", got)
	}

	// Queue one more job behind it; the watermark must record the depth.
	done := make(chan struct{})
	go func() {
		s.Submit(context.Background(), func(context.Context) {})
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for s.Stats().QueueLen == 0 {
		select {
		case <-deadline:
			t.Fatal("second job never queued")
		case <-time.After(time.Millisecond):
		}
	}
	if got := s.Stats().QueueHWM; got < 1 {
		t.Errorf("queue high-watermark = %d with a queued job, want >= 1", got)
	}

	close(block)
	<-done
	st := s.Stats()
	if st.Active != 0 {
		t.Errorf("active = %d after drain, want 0", st.Active)
	}
	if st.QueueHWM < 1 {
		t.Errorf("queue high-watermark reset to %d after drain; it must be sticky", st.QueueHWM)
	}
}

func TestSchedulerSkipsExpiredJobs(t *testing.T) {
	s := NewScheduler(1, 4, obs.NewRegistry(), nil)
	defer s.Shutdown(context.Background())

	block := make(chan struct{})
	started := make(chan struct{})
	go s.Submit(context.Background(), func(context.Context) {
		close(started)
		<-block
	})
	<-started

	// Queue a job whose context is already canceled; the worker must skip
	// it, never run it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ranCanceled := make(chan struct{})
	err := s.Submit(ctx, func(context.Context) { close(ranCanceled) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	close(block)

	// Give the worker a chance to (incorrectly) run it.
	waitFor(t, func() bool { return s.Stats().Skipped == 1 })
	select {
	case <-ranCanceled:
		t.Fatal("worker ran a job whose context was canceled")
	default:
	}
}

func TestSchedulerShutdownDrains(t *testing.T) {
	s := NewScheduler(2, 16, obs.NewRegistry(), nil)

	var ran atomic.Int64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit(context.Background(), func(context.Context) {
				<-gate
				ran.Add(1)
			})
		}()
	}
	// Wait until all 10 are admitted (some queued, some in workers).
	waitFor(t, func() bool { return s.Stats().Submitted == 10 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// New work is eventually refused outright. Until the shutdown lock
	// lands, a probe may be admitted (then expire and be skipped) or
	// bounce off the full queue; give each probe a short deadline so it
	// never blocks on the wedged workers.
	waitFor(t, func() bool {
		probeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		err := s.Submit(probeCtx, func(context.Context) {})
		return errors.Is(err, ErrShuttingDown)
	})

	close(gate) // release the jobs; shutdown must now drain all 10
	wg.Wait()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if ran.Load() != 10 {
		t.Errorf("drained %d jobs, want all 10", ran.Load())
	}
	if st := s.Stats(); st.Completed != 10 {
		t.Errorf("completed = %d, want 10", st.Completed)
	}
}

func TestSchedulerShutdownIdempotent(t *testing.T) {
	s := NewScheduler(1, 1, obs.NewRegistry(), nil)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
