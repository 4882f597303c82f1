// Package pthread is the heart of CS 31's third theme — the power of
// parallel computing — as a pthreads-shaped shared-memory API on
// goroutines: Create/Join/Detach threads, mutex locks with error checking
// and lock-order deadlock detection, cyclic barriers, and condition
// variables. Go's runtime schedules goroutines across cores exactly as
// pthreads schedules kernel threads, so every concept the course teaches —
// data races, critical sections, barrier rounds, deadlock, speedup — runs
// on real parallel hardware through this package.
package pthread

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Errors mirroring the pthread error returns the course discusses.
var (
	ErrAlreadyJoined = errors.New("pthread: thread already joined")
	ErrDetached      = errors.New("pthread: cannot join a detached thread")
	ErrNotLocked     = errors.New("pthread: unlock of unlocked mutex")
	ErrSelfDeadlock  = errors.New("pthread: relock of mutex held by this thread (deadlock)")
)

// goid returns the current goroutine's id, parsed from the runtime stack
// header ("goroutine 123 ["). It identifies "threads" for error-checking
// mutexes, the same bookkeeping an error-checking pthread mutex keeps.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return -1
	}
	id, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// Thread is a joinable thread of execution, the pthread_t of the package.
type Thread struct {
	done     chan struct{}
	result   interface{}
	joined   atomic.Bool
	detached atomic.Bool
}

// liveThreads counts threads created but not yet finished — the gauge
// goroutine-leak assertions poll to prove a canceled run left nothing
// behind.
var liveThreads atomic.Int64

// Live reports how many Create'd threads are still running. A thread
// leaves the gauge before its done channel closes, so after Join returns
// the joined thread is guaranteed to have been subtracted.
func Live() int64 { return liveThreads.Load() }

// Create starts fn in a new thread (goroutine). The value fn returns is
// delivered to Join, like pthread_exit's value pointer.
func Create(fn func() interface{}) *Thread {
	t := &Thread{done: make(chan struct{})}
	liveThreads.Add(1)
	go func() {
		defer close(t.done)
		defer liveThreads.Add(-1)
		t.result = fn()
	}()
	return t
}

// Join blocks until the thread finishes and returns its result. Joining
// twice or joining a detached thread is an error, as in pthreads.
func (t *Thread) Join() (interface{}, error) {
	if t.detached.Load() {
		return nil, ErrDetached
	}
	if !t.joined.CompareAndSwap(false, true) {
		return nil, ErrAlreadyJoined
	}
	<-t.done
	return t.result, nil
}

// Detach marks the thread as never-to-be-joined.
func (t *Thread) Detach() { t.detached.Store(true) }

// TryJoin is a non-blocking join: ok is false while the thread still runs.
func (t *Thread) TryJoin() (result interface{}, ok bool, err error) {
	if t.detached.Load() {
		return nil, false, ErrDetached
	}
	select {
	case <-t.done:
		if !t.joined.CompareAndSwap(false, true) {
			return nil, false, ErrAlreadyJoined
		}
		return t.result, true, nil
	default:
		return nil, false, nil
	}
}

// ForkJoin runs fn(0) on the calling goroutine and fn(1)..fn(n-1) on
// Create'd threads, joins every thread, and returns the lowest id's error
// so the outcome does not depend on scheduling. The caller does id 0's
// work instead of parking in Join, so a run of n ids spawns n-1 threads.
func ForkJoin(n int, fn func(id int) error) error {
	if n < 1 {
		return fmt.Errorf("pthread: need at least 1 thread")
	}
	ts := make([]*Thread, n-1)
	for id := 1; id < n; id++ {
		ts[id-1] = Create(func() interface{} { return fn(id) })
	}
	err := fn(0)
	for _, t := range ts {
		v, _ := t.Join() // cannot fail: only ForkJoin holds these threads
		if e, _ := v.(error); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// spinRounds is how many times every waiter polls, yielding the processor
// with runtime.Gosched between polls, before it reads a clock or parks.
// When the party it waits on shares its processor, Gosched hands that
// party the processor, so a few rounds usually see the wakeup (a barrier
// release, a message) without the waiter ever parking.
const spinRounds = 64

// spinBudget is how long a waiter whose every party can hold a processor
// (FitsProcessors) keeps polling after its spinRounds before it parks:
// about twice what a park costs. On a 2-vCPU KVM guest a goroutine woken
// onto an idle processor ran 79–108 µs after its wakeup (quartiles), so a
// waiter that parked at one barrier of a run started the next one that
// much late. On that guest's 2-thread 2048² Life runs, a budget of 50 µs
// cut the mean barrier wait from 76 to 57 µs, 100 µs to 25 µs and 200 µs
// to 15 µs; 400 µs and 1 ms did no better.
const spinBudget = 200 * time.Microsecond

// FitsProcessors reports whether parties goroutines can each hold a
// processor at once: at most runtime.GOMAXPROCS(0) of them. A waiter
// among such parties waits on one that is running rather than queued
// behind it, so it may spin past spinRounds (Spin). Barriers and msgpass
// worlds read it once, when they are built.
func FitsProcessors(parties int) bool {
	return parties <= runtime.GOMAXPROCS(0)
}

// Spin polls ready, yielding the processor with runtime.Gosched between
// polls, and reports whether ready returned true: the first phase of a
// two-phase wait, which barrier waits and msgpass's untimed receives run
// before they park. It polls spinRounds times without reading a clock.
// If fits reports that every party of the wait can hold a processor
// (FitsProcessors), it then keeps polling until spinBudget has passed;
// otherwise a longer spin would only take the processor from a party
// that needs it, and it returns false at once.
func Spin(fits bool, ready func() bool) bool {
	for i := 0; i < spinRounds; i++ {
		if ready() {
			return true
		}
		runtime.Gosched()
	}
	if !fits {
		return false
	}
	for deadline := time.Now().Add(spinBudget); ; runtime.Gosched() {
		if ready() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// lockOrder records the global mutex acquisition graph for deadlock
// detection: an edge a->b means some thread held a while acquiring b. A
// cycle means a lock-ordering deadlock is possible.
type lockOrder struct {
	mu         sync.Mutex
	edges      map[*Mutex]map[*Mutex]bool
	held       map[int64][]*Mutex
	violations []string
}

var order = &lockOrder{
	edges: make(map[*Mutex]map[*Mutex]bool),
	held:  make(map[int64][]*Mutex),
}

// reachable reports whether dst is reachable from src in the edge graph.
// Caller holds order.mu.
func (lo *lockOrder) reachable(src, dst *Mutex) bool {
	if src == dst {
		return true
	}
	seen := map[*Mutex]bool{src: true}
	stack := []*Mutex{src}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range lo.edges[cur] {
			if next == dst {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// acquired records that g now holds m, checking order against locks held.
func (lo *lockOrder) acquired(g int64, m *Mutex) {
	lo.mu.Lock()
	defer lo.mu.Unlock()
	for _, h := range lo.held[g] {
		if lo.edges[h] == nil {
			lo.edges[h] = make(map[*Mutex]bool)
		}
		if !lo.edges[h][m] {
			// New edge h->m; if m can already reach h, there is a cycle.
			if lo.reachable(m, h) {
				lo.violations = append(lo.violations, fmt.Sprintf(
					"lock order cycle: %q then %q reverses an existing order",
					h.name, m.name))
			}
			lo.edges[h][m] = true
		}
	}
	lo.held[g] = append(lo.held[g], m)
}

// released records that g dropped m.
func (lo *lockOrder) released(g int64, m *Mutex) {
	lo.mu.Lock()
	defer lo.mu.Unlock()
	hs := lo.held[g]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i] == m {
			lo.held[g] = append(hs[:i], hs[i+1:]...)
			break
		}
	}
	if len(lo.held[g]) == 0 {
		delete(lo.held, g)
	}
}

// LockOrderViolations returns the lock-ordering cycles observed so far —
// the deadlock-potential report the course's deadlock discussion builds to.
func LockOrderViolations() []string {
	order.mu.Lock()
	defer order.mu.Unlock()
	return append([]string(nil), order.violations...)
}

// ResetLockOrder clears the global acquisition graph (between experiments).
func ResetLockOrder() {
	order.mu.Lock()
	defer order.mu.Unlock()
	order.edges = make(map[*Mutex]map[*Mutex]bool)
	order.held = make(map[int64][]*Mutex)
	order.violations = nil
}

// Mutex is an error-checking mutex: relocking by the owning thread is
// reported as self-deadlock rather than hanging, unlocking an unlocked
// mutex is an error, and every acquisition feeds the lock-order detector.
type Mutex struct {
	ch    chan struct{}
	owner atomic.Int64
	name  string
}

// NewMutex creates a named mutex (names appear in deadlock reports).
func NewMutex(name string) *Mutex {
	m := &Mutex{ch: make(chan struct{}, 1), name: name}
	m.owner.Store(-1)
	return m
}

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.name }

// Lock acquires the mutex, blocking until available. Relocking a mutex the
// calling thread already holds returns ErrSelfDeadlock immediately instead
// of deadlocking.
func (m *Mutex) Lock() error {
	g := goid()
	if m.owner.Load() == g {
		return ErrSelfDeadlock
	}
	m.ch <- struct{}{}
	m.owner.Store(g)
	order.acquired(g, m)
	return nil
}

// TryLock acquires the mutex if it is free, reporting success.
func (m *Mutex) TryLock() bool {
	select {
	case m.ch <- struct{}{}:
		g := goid()
		m.owner.Store(g)
		order.acquired(g, m)
		return true
	default:
		return false
	}
}

// Unlock releases the mutex. Unlocking an unlocked mutex is an error.
func (m *Mutex) Unlock() error {
	g := m.owner.Load()
	select {
	case <-m.ch:
		m.owner.Store(-1)
		order.released(g, m)
		return nil
	default:
		return ErrNotLocked
	}
}

// Cond is a condition variable paired with a Mutex, matching
// pthread_cond_t usage: lock, check predicate in a loop, wait.
type Cond struct {
	inner *sync.Cond
	m     *Mutex
}

// NewCond creates a condition variable tied to m.
func NewCond(m *Mutex) *Cond {
	return &Cond{inner: sync.NewCond(&condLocker{m}), m: m}
}

// condLocker adapts Mutex to sync.Locker for sync.Cond, panicking on the
// errors a raw pthread call would render undefined behaviour.
type condLocker struct{ m *Mutex }

func (c *condLocker) Lock() {
	if err := c.m.Lock(); err != nil {
		panic(err)
	}
}

func (c *condLocker) Unlock() {
	if err := c.m.Unlock(); err != nil {
		panic(err)
	}
}

// Wait atomically releases the mutex and blocks until signaled, then
// reacquires the mutex. The caller must hold the mutex.
func (c *Cond) Wait() { c.inner.Wait() }

// Signal wakes one waiter.
func (c *Cond) Signal() { c.inner.Signal() }

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() { c.inner.Broadcast() }
