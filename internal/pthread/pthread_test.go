package pthread

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestCreateJoinResult(t *testing.T) {
	th := Create(func() interface{} { return 42 })
	v, err := th.Join()
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 42 {
		t.Errorf("result = %v", v)
	}
}

func TestDoubleJoin(t *testing.T) {
	th := Create(func() interface{} { return nil })
	if _, err := th.Join(); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Join(); !errors.Is(err, ErrAlreadyJoined) {
		t.Errorf("second join: %v", err)
	}
}

func TestJoinDetached(t *testing.T) {
	th := Create(func() interface{} { return nil })
	th.Detach()
	if _, err := th.Join(); !errors.Is(err, ErrDetached) {
		t.Errorf("join detached: %v", err)
	}
}

func TestTryJoin(t *testing.T) {
	release := make(chan struct{})
	th := Create(func() interface{} { <-release; return "done" })
	if _, ok, err := th.TryJoin(); ok || err != nil {
		t.Errorf("TryJoin on running thread: ok=%v err=%v", ok, err)
	}
	close(release)
	deadline := time.After(2 * time.Second)
	for {
		v, ok, err := th.TryJoin()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if v.(string) != "done" {
				t.Errorf("result %v", v)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("TryJoin never succeeded")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	mu := NewMutex("mx")
	var inside atomic.Int64
	var maxInside atomic.Int64
	const threads = 8
	ts := make([]*Thread, threads)
	for i := range ts {
		ts[i] = Create(func() interface{} {
			for j := 0; j < 200; j++ {
				if err := mu.Lock(); err != nil {
					return err
				}
				now := inside.Add(1)
				if now > maxInside.Load() {
					maxInside.Store(now)
				}
				inside.Add(-1)
				if err := mu.Unlock(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for _, th := range ts {
		v, err := th.Join()
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := v.(error); ok {
			t.Fatal(e)
		}
	}
	if maxInside.Load() != 1 {
		t.Errorf("critical section held by %d threads at once", maxInside.Load())
	}
}

func TestMutexErrors(t *testing.T) {
	mu := NewMutex("m")
	if err := mu.Unlock(); !errors.Is(err, ErrNotLocked) {
		t.Errorf("unlock unlocked: %v", err)
	}
	if err := mu.Lock(); err != nil {
		t.Fatal(err)
	}
	if err := mu.Lock(); !errors.Is(err, ErrSelfDeadlock) {
		t.Errorf("relock: %v", err)
	}
	if err := mu.Unlock(); err != nil {
		t.Fatal(err)
	}
	if mu.Name() != "m" {
		t.Error("name")
	}
}

func TestTryLock(t *testing.T) {
	mu := NewMutex("t")
	if !mu.TryLock() {
		t.Fatal("TryLock on free mutex should succeed")
	}
	done := make(chan bool)
	go func() { done <- mu.TryLock() }()
	if <-done {
		t.Error("TryLock on held mutex should fail")
	}
	if err := mu.Unlock(); err != nil {
		t.Fatal(err)
	}
}

func TestLockOrderViolationDetected(t *testing.T) {
	ResetLockOrder()
	a := NewMutex("A")
	b := NewMutex("B")

	// Thread 1: A then B.
	t1 := Create(func() interface{} {
		a.Lock()
		b.Lock()
		b.Unlock()
		a.Unlock()
		return nil
	})
	t1.Join()

	// Thread 2: B then A — the classic deadlock recipe.
	t2 := Create(func() interface{} {
		b.Lock()
		a.Lock()
		a.Unlock()
		b.Unlock()
		return nil
	})
	t2.Join()

	v := LockOrderViolations()
	if len(v) == 0 {
		t.Error("reversed lock order should be reported")
	}
	ResetLockOrder()
	if len(LockOrderViolations()) != 0 {
		t.Error("reset should clear violations")
	}
}

func TestConsistentLockOrderClean(t *testing.T) {
	ResetLockOrder()
	a := NewMutex("A2")
	b := NewMutex("B2")
	for i := 0; i < 2; i++ {
		th := Create(func() interface{} {
			a.Lock()
			b.Lock()
			b.Unlock()
			a.Unlock()
			return nil
		})
		th.Join()
	}
	if v := LockOrderViolations(); len(v) != 0 {
		t.Errorf("consistent order flagged: %v", v)
	}
}

func TestBarrierRounds(t *testing.T) {
	const parties = 4
	const rounds = 5
	b, err := NewBarrier(parties)
	if err != nil {
		t.Fatal(err)
	}
	// Each thread increments a per-round counter before the barrier; after
	// the barrier every thread must observe the full count — the invariant
	// that makes the Game of Life rounds correct.
	var counts [rounds]atomic.Int64
	errs := make(chan error, parties)
	for p := 0; p < parties; p++ {
		go func() {
			for r := 0; r < rounds; r++ {
				counts[r].Add(1)
				b.Wait()
				if got := counts[r].Load(); got != parties {
					errs <- fmt.Errorf("round %d: saw %d/%d arrivals after barrier", r, got, parties)
					return
				}
			}
			errs <- nil
		}()
	}
	for p := 0; p < parties; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if b.Rounds() != rounds {
		t.Errorf("rounds = %d, want %d", b.Rounds(), rounds)
	}
}

func TestBarrierSerialThread(t *testing.T) {
	const parties = 6
	b, err := NewBarrier(parties)
	if err != nil {
		t.Fatal(err)
	}
	var serialCount atomic.Int64
	ts := make([]*Thread, parties)
	for i := range ts {
		ts[i] = Create(func() interface{} {
			if b.Wait() {
				serialCount.Add(1)
			}
			return nil
		})
	}
	for _, th := range ts {
		th.Join()
	}
	if serialCount.Load() != 1 {
		t.Errorf("exactly one thread should be serial, got %d", serialCount.Load())
	}
}

func TestBarrierValidation(t *testing.T) {
	if _, err := NewBarrier(0); err == nil {
		t.Error("0-party barrier should fail")
	}
	b, err := NewBarrier(1)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Wait() {
		t.Error("single-party barrier wait is trivially serial")
	}
}

func TestCondVariable(t *testing.T) {
	mu := NewMutex("cv")
	cv := NewCond(mu)
	ready := false
	var got atomic.Bool

	waiter := Create(func() interface{} {
		mu.Lock()
		for !ready {
			cv.Wait()
		}
		got.Store(true)
		mu.Unlock()
		return nil
	})

	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	ready = true
	cv.Signal()
	mu.Unlock()

	if _, err := waiter.Join(); err != nil {
		t.Fatal(err)
	}
	if !got.Load() {
		t.Error("waiter never saw the predicate")
	}
}

func TestCondBroadcast(t *testing.T) {
	mu := NewMutex("bc")
	cv := NewCond(mu)
	released := false
	const n = 5
	var woke atomic.Int64
	ts := make([]*Thread, n)
	for i := range ts {
		ts[i] = Create(func() interface{} {
			mu.Lock()
			for !released {
				cv.Wait()
			}
			woke.Add(1)
			mu.Unlock()
			return nil
		})
	}
	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	released = true
	cv.Broadcast()
	mu.Unlock()
	for _, th := range ts {
		th.Join()
	}
	if woke.Load() != n {
		t.Errorf("broadcast woke %d of %d", woke.Load(), n)
	}
}

// TestLiveGauge: Create raises the live-thread gauge, Join observing the
// thread's completion guarantees the decrement has landed — the contract
// goroutine-leak assertions in the runner tests depend on.
func TestLiveGauge(t *testing.T) {
	base := Live()
	release := make(chan struct{})
	const n = 5
	threads := make([]*Thread, n)
	for i := 0; i < n; i++ {
		threads[i] = Create(func() interface{} {
			<-release
			return nil
		})
	}
	if got := Live(); got != base+n {
		t.Errorf("Live() = %d with %d threads parked, want %d", got, n, base+n)
	}
	close(release)
	for _, th := range threads {
		if _, err := th.Join(); err != nil {
			t.Fatal(err)
		}
	}
	if got := Live(); got != base {
		t.Errorf("Live() = %d after joining all threads, want %d", got, base)
	}
}

// TestForkJoin: id 0 runs on the calling goroutine and every other id on
// its own thread, n = 1 creates no thread, every thread is joined before
// ForkJoin returns, and the lowest id's error wins even when a higher id
// fails first.
func TestForkJoin(t *testing.T) {
	t.Run("id 0 on the caller", func(t *testing.T) {
		caller := goid()
		var ids [4]int64
		if err := ForkJoin(len(ids), func(id int) error {
			ids[id] = goid()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ids[0] != caller {
			t.Errorf("id 0 ran on goroutine %d, want the caller's %d", ids[0], caller)
		}
		seen := map[int64]bool{}
		for id, g := range ids {
			if seen[g] {
				t.Errorf("id %d shares goroutine %d with a lower id (goroutines %v)", id, g, ids)
			}
			seen[g] = true
		}
	})
	t.Run("n = 1 creates no thread", func(t *testing.T) {
		base := Live()
		ran := 0
		if err := ForkJoin(1, func(id int) error {
			if got := Live(); got != base {
				t.Errorf("Live() = %d inside a 1-id ForkJoin, want %d", got, base)
			}
			ran++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ran != 1 {
			t.Errorf("fn ran %d times, want 1", ran)
		}
	})
	t.Run("joins every thread", func(t *testing.T) {
		base := Live()
		var finished atomic.Int64
		if err := ForkJoin(5, func(id int) error {
			time.Sleep(time.Duration(5-id) * time.Millisecond)
			finished.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := finished.Load(); got != 5 {
			t.Errorf("%d of 5 ids finished before ForkJoin returned", got)
		}
		if got := Live(); got != base {
			t.Errorf("Live() = %d after ForkJoin, want %d", got, base)
		}
	})
	t.Run("lowest id's error wins", func(t *testing.T) {
		failed3 := make(chan struct{})
		err := ForkJoin(4, func(id int) error {
			switch id {
			case 3:
				close(failed3)
				return errors.New("id 3")
			case 1:
				<-failed3
				return errors.New("id 1")
			}
			return nil
		})
		if err == nil || err.Error() != "id 1" {
			t.Errorf("got %v, want id 1's error", err)
		}
	})
}
