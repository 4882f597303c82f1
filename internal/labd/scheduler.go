// Package labd is the lab-service daemon: it exposes the course's
// simulators (asm machine, mini-C compiler, cache, VM, Game of Life,
// homework generator, survey exhibits) as HTTP/JSON job endpoints served
// by a bounded queue and a fixed worker pool. The daemon is the repo's
// third theme turned inward — the parallel substrate students study
// (worker pools, bounded buffers, barriers, graceful teardown) is the
// thing that serves the course content.
package labd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cs31/internal/obs"
)

// Scheduler errors, mapped to HTTP statuses by the server.
var (
	// ErrQueueFull means the bounded queue rejected the job (HTTP 429).
	ErrQueueFull = errors.New("labd: job queue full")
	// ErrShuttingDown means the scheduler no longer accepts work (HTTP 503).
	ErrShuttingDown = errors.New("labd: shutting down")
)

// job is one unit of queued work. done is closed exactly once, after the
// job has either run to completion or been skipped because its context
// expired while it waited in the queue.
type job struct {
	ctx      context.Context
	run      func(ctx context.Context)
	done     chan struct{}
	skipped  bool      // set before done is closed when the job never ran
	enqueued time.Time // stamped at submit, for the queue-wait sample
}

// SchedStats is a point-in-time snapshot of scheduler counters. The
// invariant the load test asserts: Submitted == Completed + Skipped +
// queued-but-unfinished, and every submitted job is eventually exactly one
// of Completed or Skipped — nothing lost, nothing double-served.
type SchedStats struct {
	Submitted int64 // jobs accepted into the queue
	Rejected  int64 // jobs refused with ErrQueueFull
	Completed int64 // jobs a worker ran to completion
	Skipped   int64 // jobs whose context expired before a worker got to them
	Active    int64 // jobs a worker is running right now (live gauge)
	QueueHWM  int64 // deepest the queue has ever been (high-watermark)
	Workers   int
	QueueCap  int
	QueueLen  int
}

// Scheduler runs jobs on a fixed pool of workers fed by a bounded queue —
// the producer/consumer bounded buffer of the course's Lab 10, serving
// production traffic.
type Scheduler struct {
	queue   chan *job
	workers int

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool

	wg sync.WaitGroup // running workers

	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	skipped   atomic.Int64
	active    atomic.Int64 // jobs currently executing on a worker
	queueHWM  atomic.Int64 // deepest observed queue length

	queueWait *obs.Histogram // submit -> dequeue, sharded by worker id
	handler   *obs.Histogram // handler run time, sharded by worker id
	nWait     obs.Name       // the workers' span names (zero without a trace)
	nHandler  obs.Name
}

// NewScheduler starts `workers` goroutines behind a queue of depth
// `depth` (each raised to at least 1). Every job's queue wait and handler
// time land in reg's labd_queue_wait_seconds and
// labd_handler_duration_seconds histograms and, when trace is non-nil, as
// queue-wait and handler X spans on its worker's "worker N" lane.
func NewScheduler(workers, depth int, reg *obs.Registry, trace *obs.Trace) *Scheduler {
	workers, depth = max(workers, 1), max(depth, 1)
	s := &Scheduler{
		queue:   make(chan *job, depth),
		workers: workers,
		queueWait: reg.Histogram("labd_queue_wait_seconds",
			"Time a job spent in the bounded queue before a worker dequeued it.", "", workers),
		handler: reg.Histogram("labd_handler_duration_seconds",
			"Time a worker spent running a job's handler.", "", workers),
	}
	if trace != nil {
		s.nWait, s.nHandler = trace.Name("queue-wait"), trace.Name("handler")
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		var lane *obs.Lane
		if trace != nil {
			lane = trace.Lane(fmt.Sprintf("worker %d", i))
		}
		go s.worker(i, lane)
	}
	return s
}

// worker runs jobs off the queue until Shutdown closes it, recording on
// lane (nil without a trace).
func (s *Scheduler) worker(id int, lane *obs.Lane) {
	defer s.wg.Done()
	for j := range s.queue {
		// A job that timed out or whose client vanished while it sat in
		// the queue is skipped, not run: the waiter has already gone.
		select {
		case <-j.ctx.Done():
			j.skipped = true
			s.skipped.Add(1)
		default:
			s.active.Add(1)
			// Record how long the job queued, then time the handler: each
			// a histogram sample and, when tracing, a span on this lane.
			t0 := time.Now()
			s.queueWait.ObserveShard(id, int64(t0.Sub(j.enqueued)))
			lane.Complete(s.nWait, j.enqueued)
			j.run(j.ctx)
			s.handler.ObserveShard(id, int64(time.Since(t0)))
			lane.Complete(s.nHandler, t0)
			s.active.Add(-1)
			s.completed.Add(1)
		}
		close(j.done)
	}
}

// Submit enqueues fn and blocks until a worker has run it or ctx is done.
// It returns nil when fn ran to completion, ErrQueueFull when the bounded
// queue was full (backpressure), ErrShuttingDown after Shutdown, or the
// context's error when the caller gave up first. A job whose submitter
// gave up may still be skipped by a worker later; it is never run after
// its context is done.
func (s *Scheduler) Submit(ctx context.Context, fn func(ctx context.Context)) error {
	j := &job{ctx: ctx, run: fn, done: make(chan struct{}), enqueued: time.Now()}

	// The read lock pins the queue open: Shutdown takes the write lock
	// before closing the channel, so a send can never hit a closed queue.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrShuttingDown
	}
	select {
	case s.queue <- j:
		s.submitted.Add(1)
		// Ratchet the queue high-watermark (monotonic CAS-max): a post-send
		// len is a depth the queue really reached, so operators can tell a
		// queue that has been deep from one that is merely deep right now.
		depth := int64(len(s.queue))
		for {
			cur := s.queueHWM.Load()
			if depth <= cur || s.queueHWM.CompareAndSwap(cur, depth) {
				break
			}
		}
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.rejected.Add(1)
		return ErrQueueFull
	}

	select {
	case <-j.done:
		if j.skipped {
			// The worker observed our expired context before running.
			if err := ctx.Err(); err != nil {
				return err
			}
			return context.Canceled
		}
		return nil
	case <-ctx.Done():
		// The job stays in the queue; a worker will skip it. Wait for the
		// skip/completion so the caller knows the job can no longer touch
		// its response buffers... unless a worker is mid-run, in which
		// case the handler's fn closes over its own locals and the HTTP
		// layer reports the timeout.
		return ctx.Err()
	}
}

// Shutdown stops accepting new jobs, lets the workers drain everything
// already queued, and returns once the pool has exited or ctx is done.
// It is idempotent.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryAfter estimates, in whole seconds, how long a client rejected with
// ErrQueueFull should wait before retrying — the value the server puts in
// the 429 response's Retry-After header. The estimate is queue depth plus
// the in-flight jobs, spread over the worker pool, assuming roughly a
// second per job (generous for most endpoints); it is clamped to [1, 30]
// so a deep queue never tells a client to go away for minutes.
func (s *Scheduler) RetryAfter() int {
	backlog := int64(len(s.queue)) + s.active.Load()
	secs := (backlog + int64(s.workers) - 1) / int64(s.workers)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return int(secs)
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() SchedStats {
	return SchedStats{
		Submitted: s.submitted.Load(),
		Rejected:  s.rejected.Load(),
		Completed: s.completed.Load(),
		Skipped:   s.skipped.Load(),
		Active:    s.active.Load(),
		QueueHWM:  s.queueHWM.Load(),
		Workers:   s.workers,
		QueueCap:  cap(s.queue),
		QueueLen:  len(s.queue),
	}
}
