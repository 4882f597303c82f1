package labd

// Tests for the daemon's fault behaviour: backpressure that tells clients
// how long to back off, and request deadlines that actually tear down the
// parallel machinery they started.

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"cs31/internal/obs"
	"cs31/internal/pthread"
)

// TestRetryAfterFromBacklog pins the Retry-After arithmetic at the
// scheduler level: backlog (queued + running) spread over the workers,
// clamped to [1, 30].
func TestRetryAfterFromBacklog(t *testing.T) {
	s := NewScheduler(2, 8, obs.NewRegistry(), nil)
	defer s.Shutdown(context.Background())

	if got := s.RetryAfter(); got != 1 {
		t.Errorf("idle RetryAfter = %d, want 1", got)
	}

	// Wedge both workers, then fill the queue completely.
	block := make(chan struct{})
	started := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit(context.Background(), func(context.Context) {
				started <- struct{}{}
				<-block
			})
		}()
	}
	<-started
	<-started
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit(context.Background(), func(context.Context) {})
		}()
	}
	deadline := time.After(5 * time.Second)
	for s.Stats().QueueLen < 8 {
		select {
		case <-deadline:
			t.Fatalf("queue never filled: %+v", s.Stats())
		case <-time.After(time.Millisecond):
		}
	}

	// Backlog = 8 queued + 2 active over 2 workers = 5 seconds.
	if got := s.RetryAfter(); got != 5 {
		t.Errorf("saturated RetryAfter = %d, want 5 (stats %+v)", got, s.Stats())
	}

	close(block)
	wg.Wait()
}

// TestQueueFull429CarriesRetryAfter is the handler-level regression test:
// a bounced request must carry HTTP 429 with a Retry-After header derived
// from the live backlog, not a constant.
func TestQueueFull429CarriesRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, DefaultTimeout: time.Second, MaxSteps: 9_000_000_000})
	ts := newUnmanagedServer(t, s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	// Wedge the single worker with a slow asm request, fill the queue's
	// single slot with another, then watch the third bounce. The spinners
	// end at their own 1s deadline, so the test drains quickly afterwards.
	// Distinct step budgets (below the server cap, so normalization keeps
	// them distinct) stop the memoization layer from coalescing the
	// spinners: saturating the pool takes three separate jobs, not one
	// flight with two waiters.
	spinReq := func(i int64) AsmRunRequest {
		return AsmRunRequest{Source: "main:\nloop:\n    jmp loop\n", MaxSteps: 8_000_000_000 + i}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, ts.URL+"/v1/asm/run", spinReq(int64(i)))
		}(i)
	}
	deadline := time.After(10 * time.Second)
	for {
		st := s.SchedStats()
		if st.Active >= 1 && st.QueueLen >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("server never saturated: %+v", st)
		case <-time.After(time.Millisecond):
		}
	}

	resp, raw := postJSON(t, ts.URL+"/v1/asm/run", spinReq(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, raw)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", ra)
	}
	// Backlog at bounce time: 1 queued + 1 active over 1 worker = 2; the
	// exact figure can wobble by one if a worker picks up between the 429
	// and the header read, so accept the clamp range but reject the old
	// constant behaviour of always-1 under a visibly saturated pool.
	if secs < 2 || secs > 30 {
		t.Errorf("Retry-After = %d, want a backlog-derived value in [2, 30]", secs)
	}
	wg.Wait()
}

// TestInvalidRequestRefusedBeforeQueue: with the one worker busy and the
// one-slot queue full, a request its own fields make invalid, one per
// endpoint, still gets its 400 and golden body: not a 429 whose
// Retry-After tells the client to retry what can never succeed. It
// carries no X-Labd-Cache, and no scheduler or memo counter moves.
func TestInvalidRequestRefusedBeforeQueue(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	block, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(block)
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.sched.Submit(context.Background(), func(context.Context) {
			close(started)
			<-block
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		s.sched.Submit(context.Background(), func(context.Context) {})
	}()
	waitFor(t, func() bool { return s.SchedStats().QueueLen == 1 })

	refused := map[string]bool{
		"asm-source-required": true, "minic-source-required": true, "cache-unknown-write": true,
		"vm-frames-exceed": true, "life-unknown-partition": true, "homework-n-zero": true,
		"survey-students-zero": true,
	}
	sched, caches := s.SchedStats(), s.CacheStats()
	h := s.Handler()
	sent := 0
	for _, tc := range validationCases {
		if !refused[tc.name] {
			continue
		}
		sent++
		rec := serveValidationCase(h, tc.method, tc.path, tc.body)
		if rec.Code != tc.status || rec.Body.String() != tc.want {
			t.Errorf("%s: got %d %q\nwant %d %q", tc.name, rec.Code, rec.Body.String(), tc.status, tc.want)
		}
		for _, hdr := range []string{cacheHeader, "Retry-After"} {
			if got := rec.Header().Get(hdr); got != "" {
				t.Errorf("%s: %s = %q, want none", tc.name, hdr, got)
			}
		}
	}
	if sent != len(refused) {
		t.Fatalf("sent %d of the %d named validation cases", sent, len(refused))
	}
	if got := s.SchedStats(); got.Submitted != sched.Submitted || got.Rejected != sched.Rejected {
		t.Errorf("scheduler moved: submitted %d -> %d, rejected %d -> %d", sched.Submitted, got.Submitted, sched.Rejected, got.Rejected)
	}
	if got := s.CacheStats(); !reflect.DeepEqual(got, caches) {
		t.Errorf("memo moved:\n got %+v\nwant %+v", got, caches)
	}
}

// TestLifeDistCancelTearsDownWorld is the acceptance check for deadline
// cancellation through the whole stack: a dist-engine life request whose
// deadline expires mid-run must return 504 within 100ms of the deadline,
// and the msgpass rank goroutines it spawned must all be gone.
func TestLifeDistCancelTearsDownWorld(t *testing.T) {
	baseline := pthread.Live()
	const timeout = 80 * time.Millisecond
	_, ts := newTestServer(t, Config{Workers: 2, DefaultTimeout: timeout})

	start := time.Now()
	resp, raw := postJSON(t, ts.URL+"/v1/life/run", LifeRunRequest{
		Rows: 512, Cols: 512, Iters: maxLifeIters,
		Threads: 8, Engine: "dist",
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, raw)
	}
	if elapsed > timeout+100*time.Millisecond {
		t.Errorf("504 took %v, want within 100ms of the %v deadline", elapsed, timeout)
	}

	// Zero live msgpass goroutines: the world joined every rank before the
	// handler returned. The gauge may lag the HTTP response by the skipped
	// job's bookkeeping, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for pthread.Live() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d rank goroutines still live after canceled dist request (baseline %d)",
				pthread.Live(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLifeParallelCancel504 is the same deadline check for the
// shared-memory engine: cancellation is uniform across barrier rounds, so
// the workers tear down instead of stranding each other.
func TestLifeParallelCancel504(t *testing.T) {
	baseline := pthread.Live()
	const timeout = 80 * time.Millisecond
	_, ts := newTestServer(t, Config{Workers: 2, DefaultTimeout: timeout})

	resp, raw := postJSON(t, ts.URL+"/v1/life/run", LifeRunRequest{
		Rows: 512, Cols: 512, Iters: maxLifeIters,
		Threads: 8, Engine: "parallel",
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, raw)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pthread.Live() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker goroutines still live after canceled parallel request (baseline %d)",
				pthread.Live(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLifeRunCancelErrorClass: the handler maps the engines' wrapped
// context errors onto the timeout status, not a 400 — the structured error
// must survive the trip through life.Advance.
func TestLifeRunCancelErrorClass(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeout: time.Hour})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := s.lifeRun(ctx, checked(t, s.checkLife, LifeRunRequest{
		Rows: 512, Cols: 512, Iters: maxLifeIters, Threads: 4, Engine: "dist",
	}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}
