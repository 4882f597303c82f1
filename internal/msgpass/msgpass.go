// Package msgpass is an MPI-style message-passing runtime over goroutines:
// a World of rank-addressed Comms with tagged point-to-point Send/Recv and
// tree-based collectives (Barrier, Bcast, Reduce, Allreduce, Scatter,
// Gather). It is the distributed-memory counterpart of internal/pthread —
// where the shared-memory labs synchronize threads over one address space,
// msgpass ranks share nothing and communicate only by messages, the model
// the cited distributed-computing curricula (Tadonki's MPI module, Shafi
// et al.'s MPJ send/recv teaching API) build their Life-style workloads on.
//
// Semantics follow MPI where a classroom-scale runtime can afford to:
//
//   - Point-to-point messages match by exact (source, tag) and are
//     non-overtaking: two messages from the same sender with the same tag
//     are received in send order.
//   - Each rank's inbox is a buffered channel of configurable capacity.
//     Capacity > 0 gives eager sends (Send returns once the message is
//     buffered); capacity 0 gives rendezvous sends (Send blocks until the
//     receiver is actively draining its inbox) — both semantics are
//     testable, and symmetric exchanges that are safe under eager buffering
//     deadlock under rendezvous exactly as they would under MPI_Ssend.
//   - Collectives must be called by every rank of the world in the same
//     order. They are built on the point-to-point layer in a reserved
//     negative tag space, combining fan-in-barrierFanIn trees — the same
//     discipline as internal/pthread.Barrier's combining tree, expressed
//     with messages instead of shared counters.
//
// A receive waits in two phases. An untimed one (Recv and every
// collective) first polls its inbox through pthread.Spin, the spin
// pthread.Barrier also runs: 64 Gosched polls, and then, in a world whose
// ranks can each hold a processor (pthread.FitsProcessors, read once in
// NewWorld), polls for up to about twice what a park and wake costs. Only
// then does it park; timed receives park at once. World.Run runs rank 0
// on the calling goroutine and every other rank on its own thread
// (pthread.ForkJoin).
//
// Parallel programs fail in ways sequential ones cannot, so the runtime
// carries a fault layer rather than documenting its hangs: every parked
// operation publishes a wait-set entry and listens for world-wide abort
// and per-rank failure signals. On top of that sit a seeded Chaos
// transport hook (WithChaos: bounded delivery delays and rank stalls), a
// deadlock watchdog (WithWatchdog: wait-cycle detection returning a
// structured DeadlockError), receive deadlines (RecvTimeout/RecvDeadline),
// simulated rank death (World.Fail), and context cancellation (RunCtx) —
// each hang the runtime used to be capable of is now a reported error.
//
// Every Comm keeps per-rank traffic counters (messages, bytes, collective
// calls) so experiments can weigh communication against computation, and
// an inbox high-water mark so a protocol's stated inbox bound can be
// checked against the depth its point-to-point traffic reached.
package msgpass

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"cs31/internal/obs"
	"cs31/internal/pthread"
)

// DefaultCapacity is the per-rank inbox depth a World gets when no explicit
// capacity is configured: deep enough that the halo-exchange and collective
// patterns in this repo run eagerly, small enough that backpressure is
// reachable in tests.
const DefaultCapacity = 16

// envelope is one in-flight message.
type envelope struct {
	source  int
	tag     int
	payload any
	bytes   int64
}

// World is a fixed set of ranks that can message each other — the
// MPI_COMM_WORLD of a run. Create one with NewWorld, then either drive all
// ranks with Run or hand individual Comms to your own goroutines (exactly
// one goroutine may use a given Comm at a time).
//
// A World aborts at most once — by watchdog-detected deadlock or by a
// canceled RunCtx context — and an aborted World stays dead: every
// subsequent blocking operation returns the abort cause.
type World struct {
	size     int
	capacity int
	comms    []*Comm
	chaos    *Chaos
	watchdog time.Duration

	// fits is pthread.FitsProcessors(size): whether an untimed receive
	// may spin past pthread.Spin's first rounds before it parks.
	fits bool

	abort     chan struct{} // closed exactly once by abortWith
	abortOnce sync.Once
	abortErr  atomic.Pointer[abortCause]

	// trace and the pre-registered name handles below are set once in
	// NewWorld (WithTrace) and read-only afterwards; a nil trace leaves
	// every Comm's lane nil, making the recording path a nil check.
	trace *obs.Trace
	tn    traceNames
}

// traceNames is the world's pre-registered event-name table: handles
// are resolved at NewWorld so the messaging hot paths never touch a
// string. Send/recv events carry (peer, tag) args; a blocking or
// chaos-delayed operation shows as a long X span on its rank's lane.
type traceNames struct {
	send, recv                                         obs.Name
	barrier, bcast, reduce, allreduce, scatter, gather obs.Name
}

// abortCause boxes the abort error for atomic publication.
type abortCause struct{ err error }

// Option configures a World.
type Option func(*worldConfig)

type worldConfig struct {
	capacity int
	hasCap   bool
	chaos    *Chaos
	watchdog time.Duration
	trace    *obs.Trace
}

// WithTrace records every rank's message traffic on an obs timeline:
// one lane per rank ("rank 0", "rank 1", ...), an X span per completed
// send/recv tagged with (peer, tag), and a B/E span around each
// collective. Chaos delays and inbox backpressure surface as long
// spans. A nil trace is the default (no recording).
func WithTrace(t *obs.Trace) Option {
	return func(c *worldConfig) { c.trace = t }
}

// WithCapacity sets the per-rank inbox capacity. Zero selects rendezvous
// sends: Send blocks until the destination rank pulls the message in Recv.
func WithCapacity(n int) Option {
	return func(c *worldConfig) {
		c.capacity = n
		c.hasCap = true
	}
}

// NewWorld creates a world of size ranks.
func NewWorld(size int, opts ...Option) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("msgpass: world size %d invalid", size)
	}
	cfg := worldConfig{capacity: DefaultCapacity}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.hasCap && cfg.capacity < 0 {
		return nil, fmt.Errorf("msgpass: inbox capacity %d invalid", cfg.capacity)
	}
	if cfg.watchdog < 0 {
		return nil, fmt.Errorf("msgpass: watchdog timeout %v invalid", cfg.watchdog)
	}
	if cfg.chaos != nil {
		if err := cfg.chaos.validate(size); err != nil {
			return nil, err
		}
	}
	w := &World{
		size:     size,
		capacity: cfg.capacity,
		chaos:    cfg.chaos,
		watchdog: cfg.watchdog,
		fits:     pthread.FitsProcessors(size),
		abort:    make(chan struct{}),
		trace:    cfg.trace,
	}
	if t := cfg.trace; t != nil {
		w.tn = traceNames{
			send:      t.Name("send", "peer", "tag"),
			recv:      t.Name("recv", "peer", "tag"),
			barrier:   t.Name("barrier"),
			bcast:     t.Name("bcast"),
			reduce:    t.Name("reduce"),
			allreduce: t.Name("allreduce"),
			scatter:   t.Name("scatter"),
			gather:    t.Name("gather"),
		}
	}
	w.comms = make([]*Comm, size)
	for r := 0; r < size; r++ {
		c := &Comm{
			world:  w,
			rank:   r,
			inbox:  make(chan envelope, cfg.capacity),
			failed: make(chan struct{}),
		}
		if cfg.trace != nil {
			c.lane = cfg.trace.Lane(fmt.Sprintf("rank %d", r))
		}
		if cfg.chaos != nil && cfg.chaos.applies(r) &&
			(cfg.chaos.DelayProb > 0 || cfg.chaos.StallProb > 0) {
			c.rng = chaosRNG(cfg.chaos.Seed, r)
		}
		w.comms[r] = c
	}
	return w, nil
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns rank r's communicator. At most one goroutine may use it at a
// time (MPI's one-process-per-rank discipline).
func (w *World) Comm(r int) (*Comm, error) {
	if r < 0 || r >= w.size {
		return nil, fmt.Errorf("msgpass: rank %d outside world of %d", r, w.size)
	}
	return w.comms[r], nil
}

// abortWith publishes the world's terminal error and releases every
// blocked operation. First cause wins; later calls are no-ops.
func (w *World) abortWith(err error) {
	w.abortOnce.Do(func() {
		w.abortErr.Store(&abortCause{err: err})
		close(w.abort)
	})
}

// AbortCause returns the error the world aborted with (deadlock, context
// cancellation), or nil while it is healthy.
func (w *World) AbortCause() error {
	if c := w.abortErr.Load(); c != nil {
		return c.err
	}
	return nil
}

// abortError renders the abort cause as one rank's operation error,
// wrapping the cause so errors.Is/As see through to the DeadlockError or
// the context error.
func (w *World) abortError(rank int, op string, peer, tag int) error {
	cause := w.AbortCause()
	if cause == nil {
		cause = errors.New("msgpass: world aborted")
	}
	return fmt.Errorf("msgpass: rank %d %s (peer %d, tag %d) aborted: %w", rank, op, peer, tag, cause)
}

// Fail simulates rank r's death. The rank's own operations (including any
// it is currently blocked in) return RankFailedError, sends to it error
// out promptly, and receives from it error once nothing it sent before
// dying remains deliverable — so collectives spanning a dead rank fail
// fast instead of hanging. Failing a rank twice is a no-op.
func (w *World) Fail(r int) error {
	if r < 0 || r >= w.size {
		return fmt.Errorf("msgpass: fail: rank %d outside world of %d", r, w.size)
	}
	c := w.comms[r]
	c.failOnce.Do(func() { close(c.failed) })
	return nil
}

// Run invokes fn with every rank's Comm, rank 0 on the calling goroutine
// and every other rank on its own thread (pthread.ForkJoin), joins them
// all, and returns the lowest-rank error (so the outcome does not depend
// on scheduling).
func (w *World) Run(fn func(c *Comm) error) error {
	return w.RunCtx(context.Background(), fn)
}

// RunCtx is Run under a context: when ctx is canceled the world aborts,
// every blocked rank returns promptly with an error wrapping ctx.Err(),
// and RunCtx still joins every rank thread before returning — a canceled
// run leaves zero live rank goroutines behind. A context that is already
// done aborts the world before any rank function runs, and a cancel after
// RunCtx returned leaves the world alone. With WithWatchdog armed, the
// deadlock monitor runs for the duration of the call.
func (w *World) RunCtx(ctx context.Context, fn func(c *Comm) error) error {
	if fn == nil {
		return fmt.Errorf("msgpass: nil rank function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		w.abortWith(err)
		return fmt.Errorf("msgpass: run not started: %w", err)
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { w.abortWith(ctx.Err()) })
		defer stop()
	}
	if w.watchdog > 0 {
		joined := make(chan struct{})
		defer close(joined)
		go w.watchdogLoop(joined)
	}
	return pthread.ForkJoin(w.size, func(r int) error {
		c := w.comms[r]
		defer c.done.Store(true)
		if err := fn(c); err != nil {
			return fmt.Errorf("msgpass: rank %d: %w", r, err)
		}
		return nil
	})
}

// CommStats is one rank's traffic counters.
type CommStats struct {
	Rank        int
	Sends       int64 // point-to-point messages sent (collective traffic included)
	Recvs       int64 // point-to-point messages received
	BytesSent   int64
	BytesRecvd  int64
	Collectives int64 // collective calls entered on this rank

	// InboxHWM is the longest this rank's inbox was right after a
	// point-to-point message (tag >= 0) was enqueued into it: the depth a
	// user-level exchange actually reached, whatever collective messages
	// sat in the inbox beside it. Enqueues of collective traffic leave the
	// mark alone, so a root-direct Gather filling the root's inbox after
	// the exchanges are done does not count.
	InboxHWM int64
}

// WorldStats aggregates every rank's counters.
type WorldStats struct {
	PerRank     []CommStats
	Sends       int64
	BytesSent   int64
	Collectives int64
	InboxHWM    int64 // the largest rank's InboxHWM
}

// Stats snapshots every rank's counters. Safe to call while ranks run.
func (w *World) Stats() WorldStats {
	ws := WorldStats{PerRank: make([]CommStats, w.size)}
	for r, c := range w.comms {
		s := c.Stats()
		ws.PerRank[r] = s
		ws.Sends += s.Sends
		ws.BytesSent += s.BytesSent
		ws.Collectives += s.Collectives
		ws.InboxHWM = max(ws.InboxHWM, s.InboxHWM)
	}
	return ws
}

// Wait-state kinds published for the watchdog. Timed receives publish
// waitRecvTimed, which the watchdog ignores: a wait with a deadline
// resolves itself and must not be reported as a deadlock.
const (
	waitNone int32 = iota
	waitRecv
	waitSend
	waitRecvTimed
)

// Comm is one rank's endpoint: its identity in the world, its inbox, and
// the pending queue of messages that arrived before anyone asked for them.
type Comm struct {
	world *World
	rank  int
	inbox chan envelope

	// failed is closed by World.Fail; every blocking select listens on its
	// own and its peer's channel so rank death releases waiters promptly.
	failed   chan struct{}
	failOnce sync.Once
	done     atomic.Bool // fn returned (set by Run's wrapper)

	// rng drives this rank's chaos injection (nil when chaos is off or
	// does not apply to this rank). Only the rank's goroutine touches it.
	rng *rand.Rand

	// lane is this rank's trace timeline (nil when the world has no
	// trace — the disabled path is a nil check).
	lane *obs.Lane

	// pending holds arrived-but-unmatched envelopes in arrival order. Only
	// the rank's own goroutine touches it (Recv is single-consumer), so it
	// needs no lock.
	pending []envelope

	// Wait-state registry, a seqlock the watchdog samples without stopping
	// the rank: waitSeq is odd while the rank is blocked in an operation
	// and even while it runs; the payload fields are only meaningful when
	// two seq reads around them agree on an odd value. Any progress inside
	// a blocked operation (an envelope pended while waiting for another)
	// bumps the seq by 2, so "same odd seq across two samples" means the
	// wait made zero progress for a full watchdog period.
	waitSeq  atomic.Uint64
	waitKind atomic.Int32
	waitPeer atomic.Int32
	waitTag  atomic.Int64

	// collSeq numbers this rank's collective calls. Collectives are called
	// in the same order on every rank, so equal sequence numbers name the
	// same logical operation world-wide; the tag -seq keeps collective
	// traffic out of the non-negative user tag space.
	collSeq int64

	sends       atomic.Int64
	recvs       atomic.Int64
	bytesSent   atomic.Int64
	bytesRecvd  atomic.Int64
	collectives atomic.Int64
	inboxHWM    atomic.Int64 // raised by senders, so atomic max
}

// Rank reports this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// TraceLane returns this rank's trace timeline, nil when the world was
// built without WithTrace. Callers layer their own spans (generation,
// halo exchange) onto the same lane the runtime's send/recv events use;
// nil-lane recording calls are no-ops.
func (c *Comm) TraceLane() *obs.Lane { return c.lane }

// Size reports the world size.
func (c *Comm) Size() int { return c.world.size }

// Failed reports whether this rank has been failed with World.Fail.
func (c *Comm) Failed() bool {
	select {
	case <-c.failed:
		return true
	default:
		return false
	}
}

// Stats snapshots this rank's counters.
func (c *Comm) Stats() CommStats {
	return CommStats{
		Rank:        c.rank,
		Sends:       c.sends.Load(),
		Recvs:       c.recvs.Load(),
		BytesSent:   c.bytesSent.Load(),
		BytesRecvd:  c.bytesRecvd.Load(),
		Collectives: c.collectives.Load(),
		InboxHWM:    c.inboxHWM.Load(),
	}
}

// noteInbox raises the inbox high-water mark to the inbox's current
// length. Senders race on it, so it is a compare-and-swap max; the common
// case, a length at or under the mark, is one load.
func (c *Comm) noteInbox() {
	n := int64(len(c.inbox))
	for {
		hwm := c.inboxHWM.Load()
		if n <= hwm || c.inboxHWM.CompareAndSwap(hwm, n) {
			return
		}
	}
}

// beginWait publishes a blocked state (seq goes odd).
func (c *Comm) beginWait(kind int32, peer, tag int) {
	c.waitKind.Store(kind)
	c.waitPeer.Store(int32(peer))
	c.waitTag.Store(int64(tag))
	c.waitSeq.Add(1)
}

// endWait returns the wait-state to running (seq goes even).
func (c *Comm) endWait() { c.waitSeq.Add(1) }

// stirWait records progress within a blocked operation (seq stays odd but
// changes value, so the watchdog never sees the wait as stable).
func (c *Comm) stirWait() { c.waitSeq.Add(2) }

// payloadBytes estimates a payload's wire size for the traffic counters:
// element bytes for slices and strings, shallow type size otherwise. The
// figure feeds analysis, not allocation, so a deterministic estimate beats
// a deep traversal.
func payloadBytes(v any) int64 {
	if v == nil {
		return 0
	}
	t := reflect.TypeOf(v)
	switch t.Kind() {
	case reflect.Slice:
		return int64(reflect.ValueOf(v).Len()) * int64(t.Elem().Size())
	case reflect.String:
		return int64(len(v.(string)))
	default:
		return int64(t.Size())
	}
}

// Send delivers payload to rank dest under tag. User tags must be
// non-negative (negative tags are the collectives' reserved space). With a
// buffered inbox the send is eager; with capacity 0 it blocks until dest
// drains it (rendezvous). Sending to yourself requires free inbox capacity
// — a rendezvous self-send deadlocks, exactly as in MPI, and is what the
// watchdog reports as a one-rank cycle.
func (c *Comm) Send(dest, tag int, payload any) error {
	if err := c.checkRank("send", dest); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("msgpass: rank %d send: tag %d is reserved (user tags are >= 0)", c.rank, tag)
	}
	return c.send(dest, tag, payload)
}

// send is the unchecked path shared with the collectives (which use the
// negative tag space Send rejects). When the world carries a trace, a
// completed send records an X span — entry to delivery, chaos delays
// and inbox backpressure included — tagged (peer, tag).
func (c *Comm) send(dest, tag int, payload any) error {
	if c.lane == nil {
		return c.sendMsg(dest, tag, payload)
	}
	t0 := time.Now()
	err := c.sendMsg(dest, tag, payload)
	if err == nil {
		c.lane.CompleteArgs(c.world.tn.send, t0, int64(dest), int64(tag))
	}
	return err
}

// sendMsg blocks abortably: a full inbox parks the sender in a select
// that also watches world abort and both ranks' failure channels,
// publishing a send wait-set entry for the watchdog while parked.
func (c *Comm) sendMsg(dest, tag int, payload any) error {
	if err := c.opEntry("send", dest, tag); err != nil {
		return err
	}
	dst := c.world.comms[dest]
	if dst.Failed() {
		return &RankFailedError{Rank: dest}
	}
	if c.world.chaos != nil {
		if err := c.chaosDelay(c.world.chaos.DelayProb, c.world.chaos.MaxDelay); err != nil {
			return err
		}
	}
	n := payloadBytes(payload)
	env := envelope{source: c.rank, tag: tag, payload: payload, bytes: n}
	select {
	case dst.inbox <- env:
	default:
		// Inbox full (or rendezvous with no receiver ready): park.
		c.beginWait(waitSend, dest, tag)
		err := c.sendBlocked(dst, env)
		c.endWait()
		if err != nil {
			return err
		}
	}
	if tag >= 0 {
		dst.noteInbox()
	}
	c.sends.Add(1)
	c.bytesSent.Add(n)
	return nil
}

// sendBlocked is the parked half of send.
func (c *Comm) sendBlocked(dst *Comm, env envelope) error {
	select {
	case dst.inbox <- env:
		return nil
	case <-c.world.abort:
		return c.world.abortError(c.rank, "send", dst.rank, env.tag)
	case <-dst.failed:
		return &RankFailedError{Rank: dst.rank}
	case <-c.failed:
		return &RankFailedError{Rank: c.rank}
	}
}

// opEntry is the fast-path health check every operation starts with.
func (c *Comm) opEntry(op string, peer, tag int) error {
	select {
	case <-c.world.abort:
		return c.world.abortError(c.rank, op, peer, tag)
	default:
	}
	if c.Failed() {
		return &RankFailedError{Rank: c.rank}
	}
	return nil
}

// Recv blocks until a message from source with exactly tag arrives and
// returns its payload. Messages from other (source, tag) pairs that arrive
// in the meantime are queued and left for their own Recv calls; for a fixed
// pair, delivery order is send order.
func (c *Comm) Recv(source, tag int) (any, error) {
	if err := c.checkRecvArgs(source, tag); err != nil {
		return nil, err
	}
	return c.recvWait(source, tag, nil, 0)
}

// RecvTimeout is Recv with a budget: when no matching message arrives
// within timeout it returns a TimeoutError (errors.Is ErrTimeout) instead
// of blocking forever. A non-positive timeout is an already-expired
// deadline — the pending queue and anything already buffered are still
// drained, so it doubles as a poll.
func (c *Comm) RecvTimeout(source, tag int, timeout time.Duration) (any, error) {
	if err := c.checkRecvArgs(source, tag); err != nil {
		return nil, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	return c.recvWait(source, tag, t.C, timeout)
}

// RecvDeadline is RecvTimeout against an absolute deadline.
func (c *Comm) RecvDeadline(source, tag int, deadline time.Time) (any, error) {
	return c.RecvTimeout(source, tag, time.Until(deadline))
}

func (c *Comm) checkRecvArgs(source, tag int) error {
	if err := c.checkRank("recv", source); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("msgpass: rank %d recv: tag %d is reserved (user tags are >= 0)", c.rank, tag)
	}
	return nil
}

// recvWait wraps the matching loop shared by Recv, the timed variants,
// and the collectives; when the world carries a trace, a completed
// receive records an X span — entry to match, blocking and chaos
// stalls included — tagged (peer, tag).
func (c *Comm) recvWait(source, tag int, deadline <-chan time.Time, timeout time.Duration) (any, error) {
	if c.lane == nil {
		return c.recvMatch(source, tag, deadline, timeout)
	}
	t0 := time.Now()
	v, err := c.recvMatch(source, tag, deadline, timeout)
	if err == nil {
		c.lane.CompleteArgs(c.world.tn.recv, t0, int64(source), int64(tag))
	}
	return v, err
}

// recvMatch is the unchecked matching loop: scan pending in arrival
// order, then (untimed receives only) poll the inbox through pthread.Spin,
// long when the world's ranks fit its processors, then publish the wait
// and park on the inbox — queuing mismatches all along — until the wanted
// (source, tag) shows, the deadline fires, the source (or this rank) is
// failed, or the world aborts. timeout is only for error reporting;
// deadline carries the actual clock.
func (c *Comm) recvMatch(source, tag int, deadline <-chan time.Time, timeout time.Duration) (any, error) {
	if err := c.opEntry("recv", source, tag); err != nil {
		return nil, err
	}
	if c.world.chaos != nil {
		if err := c.chaosDelay(c.world.chaos.StallProb, c.world.chaos.MaxStall); err != nil {
			return nil, err
		}
	}
	for i, env := range c.pending {
		if env.source == source && env.tag == tag {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return c.deliver(env), nil
		}
	}
	// The spin usually sees the match arrive without parking; a timed
	// receive parks at once, so a non-positive timeout stays a poll.
	var env envelope
	if deadline == nil && pthread.Spin(c.world.fits, func() (ok bool) {
		env, ok = c.drain(source, tag)
		return ok
	}) {
		return c.deliver(env), nil
	}
	src := c.world.comms[source]
	kind := waitRecv
	if deadline != nil {
		kind = waitRecvTimed
	}
	c.beginWait(kind, source, tag)
	defer c.endWait()
	for {
		select {
		case env := <-c.inbox:
			if env.source == source && env.tag == tag {
				return c.deliver(env), nil
			}
			c.pending = append(c.pending, env)
			c.stirWait()
		case <-c.world.abort:
			return nil, c.world.abortError(c.rank, "recv", source, tag)
		case <-c.failed:
			return nil, &RankFailedError{Rank: c.rank}
		case <-src.failed:
			// The source is dead, but messages it sent before dying may
			// still sit in the inbox: drain it, deliver a match if one was
			// in flight, and only then report the death.
			if env, ok := c.drain(source, tag); ok {
				return c.deliver(env), nil
			}
			return nil, &RankFailedError{Rank: source}
		case <-deadline:
			return nil, &TimeoutError{Rank: c.rank, Source: source, Tag: tag, Timeout: timeout}
		}
	}
}

// drain takes envelopes from the inbox without blocking until it finds one
// from (source, tag) or the inbox is empty, queuing mismatches on pending
// in arrival order.
func (c *Comm) drain(source, tag int) (envelope, bool) {
	for {
		select {
		case env := <-c.inbox:
			if env.source == source && env.tag == tag {
				return env, true
			}
			c.pending = append(c.pending, env)
		default:
			return envelope{}, false
		}
	}
}

// deliver books a matched envelope into the traffic counters.
func (c *Comm) deliver(env envelope) any {
	c.recvs.Add(1)
	c.bytesRecvd.Add(env.bytes)
	return env.payload
}

func (c *Comm) checkRank(op string, r int) error {
	if r < 0 || r >= c.world.size {
		return fmt.Errorf("msgpass: rank %d %s: peer rank %d outside world of %d", c.rank, op, r, c.world.size)
	}
	return nil
}

// Send delivers a typed payload — the generic front door over Comm.Send
// (methods cannot be generic, package functions can).
func Send[T any](c *Comm, dest, tag int, v T) error {
	return c.Send(dest, tag, v)
}

// Recv receives a typed payload, failing loudly when the arriving message's
// type does not match (a type mismatch is a program bug, not data).
func Recv[T any](c *Comm, source, tag int) (T, error) {
	v, err := c.Recv(source, tag)
	return typedPayload[T](c, source, tag, v, err)
}

// RecvTimeout is the typed form of Comm.RecvTimeout.
func RecvTimeout[T any](c *Comm, source, tag int, timeout time.Duration) (T, error) {
	v, err := c.RecvTimeout(source, tag, timeout)
	return typedPayload[T](c, source, tag, v, err)
}

func typedPayload[T any](c *Comm, source, tag int, v any, err error) (T, error) {
	if err != nil {
		var zero T
		return zero, err
	}
	tv, ok := v.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("msgpass: rank %d recv from %d tag %d: payload is %T, want %T",
			c.rank, source, tag, v, zero)
	}
	return tv, nil
}
