package pthread

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cs31/internal/obs"
)

// barrierFanIn is the combining-tree arity. Four children per node keeps
// the tree shallow (16 parties -> 2 levels) while each node's arrival
// counter stays well under cache-line contention saturation.
const barrierFanIn = 4

// barrierNode is one counter of the combining tree, padded so sibling
// counters never share a cache line (the whole point is that leaf arrivals
// touch disjoint lines).
type barrierNode struct {
	// arrivals counts arrivals monotonically and is never reset: a node's
	// round completes on every target-th arrival (arrivals % target == 0).
	// A countdown-and-reset scheme looks simpler but deadlocks under the
	// anonymous Wait path, where goroutines from two or more future rounds
	// can pile arrivals onto a node before the current round's winner
	// resets it — the reset then skips the zero crossing and the round is
	// never detected. Monotonic counters have no reset to race with.
	arrivals atomic.Int64
	target   int64 // arrivals per round at this node
	parent   int32 // index into nodes; -1 at the root
	_        [64 - 8 - 8 - 4]byte
}

// Barrier is a cyclic barrier for a fixed party count, the
// pthread_barrier_t of the package. Wait blocks until all parties arrive;
// exactly one waiter per round observes serial == true (the
// PTHREAD_BARRIER_SERIAL_THREAD convention).
//
// Internally it is a sense-reversing combining tree: parties are grouped
// barrierFanIn to a leaf, and only the arrival that completes a node
// climbs to its parent, so a round costs one atomic add per arrival on the
// leaf path and O(log n) climbing adds total, instead of serializing all
// parties through one lock. The centralized PR-2 implementation survives
// as RefBarrier, the differential-test reference.
//
// Two arrival APIs share the tree and must not be mixed on one instance:
// Wait (anonymous, ticket-ordered) and WaitParty (fixed identity, one
// atomic per arrival — the ParallelRunner hot path).
//
// As with pthread_barrier_t, at most parties threads may be blocked in
// the barrier at once; which threads those are may change from round to
// round (the tree counts arrivals, not identities). Letting extra
// threads pile into an anonymous barrier concurrently deadlocks any
// implementation — a stranded round can never fill — so callers with
// more workers than parties must rotate them between rounds.
type Barrier struct {
	parties int
	nodes   []barrierNode

	// fits is FitsProcessors(parties), read once: whether a waiter may
	// spin past spinRounds before it parks.
	fits bool

	// tickets orders anonymous Wait arrivals: ticket t belongs to round
	// t/parties, and index t%parties within it picks the leaf.
	tickets atomic.Int64

	// gen counts completed (released) rounds; waiters of round r block
	// until gen > r. Monotonic, so Rounds() is a single load.
	gen atomic.Int64

	// parked counts waiters blocked in the cond slow path, so releasers
	// skip the mutex entirely when everyone is still spinning.
	parked   atomic.Int64
	parkMu   sync.Mutex
	parkCond *sync.Cond

	// waitObs, when set, receives the wall-clock duration of every
	// Wait/WaitParty call — arrival through release — so barrier stalls
	// (stragglers) show up as a latency distribution. The disabled path
	// is a single atomic load.
	waitObs atomic.Pointer[obs.Histogram]
}

// ObserveWaits attaches a histogram that records how long each arrival
// blocks in the barrier, in nanoseconds. WaitParty records on the
// shard selected by the party id; anonymous Wait round-robins. Passing
// nil detaches. Safe to call concurrently with waiters.
func (b *Barrier) ObserveWaits(h *obs.Histogram) {
	b.waitObs.Store(h)
}

// NewBarrier creates a barrier for parties threads (>= 1).
func NewBarrier(parties int) (*Barrier, error) {
	if parties < 1 {
		return nil, fmt.Errorf("pthread: barrier needs at least 1 party, got %d", parties)
	}
	b := &Barrier{parties: parties, fits: FitsProcessors(parties)}
	b.parkCond = sync.NewCond(&b.parkMu)

	// Build the tree bottom-up: level 0 holds the leaves (barrierFanIn
	// parties each), and each upper level combines barrierFanIn children,
	// until a single root remains.
	sizes := []int{(parties + barrierFanIn - 1) / barrierFanIn}
	for sizes[len(sizes)-1] > 1 {
		prev := sizes[len(sizes)-1]
		sizes = append(sizes, (prev+barrierFanIn-1)/barrierFanIn)
	}
	total := 0
	for _, sz := range sizes {
		total += sz
	}
	b.nodes = make([]barrierNode, total)
	offset := 0
	for li, sz := range sizes {
		next := offset + sz
		children := parties
		if li > 0 {
			children = sizes[li-1]
		}
		for j := 0; j < sz; j++ {
			n := &b.nodes[offset+j]
			n.target = int64(min(barrierFanIn, children-j*barrierFanIn))
			if li == len(sizes)-1 {
				n.parent = -1
			} else {
				n.parent = int32(next + j/barrierFanIn)
			}
		}
		offset = next
	}
	return b, nil
}

// arrive registers one arrival at the given leaf, climbing the tree when
// this arrival completes a node's round. It reports whether the caller
// completed the root and therefore released a round.
func (b *Barrier) arrive(leaf int) bool {
	idx := leaf
	for {
		n := &b.nodes[idx]
		if n.arrivals.Add(1)%n.target != 0 {
			return false
		}
		if n.parent < 0 {
			b.release()
			return true
		}
		idx = int(n.parent)
	}
}

// release publishes a completed round and wakes any parked waiters. The
// parked check is safe against lost wakeups because Go atomics are
// sequentially consistent: a parker stores parked before loading gen, and
// a releaser stores gen before loading parked, so at least one of the two
// observes the other.
func (b *Barrier) release() {
	b.gen.Add(1)
	if b.parked.Load() > 0 {
		b.parkMu.Lock()
		b.parkCond.Broadcast()
		b.parkMu.Unlock()
	}
}

// await blocks until round has been released: Spin, long when every party
// can hold a processor, then a park on the condition variable.
func (b *Barrier) await(round int64) {
	if Spin(b.fits, func() bool { return b.gen.Load() > round }) {
		return
	}
	b.parked.Add(1)
	b.parkMu.Lock()
	for b.gen.Load() <= round {
		b.parkCond.Wait()
	}
	b.parkMu.Unlock()
	b.parked.Add(-1)
}

// Wait blocks until all parties have called Wait this round.
//
// Arrivals are anonymous, so a central ticket assigns each its round and
// leaf. The serial thread is the holder of the round's last ticket — the
// root completer cannot serve, because with surplus goroutines cycling
// through the barrier an arrival may complete a round other than the one
// its ticket belongs to.
func (b *Barrier) Wait() (serial bool) {
	if h := b.waitObs.Load(); h != nil {
		t0 := time.Now()
		serial = b.wait()
		h.Observe(int64(time.Since(t0)))
		return serial
	}
	return b.wait()
}

func (b *Barrier) wait() (serial bool) {
	ticket := b.tickets.Add(1) - 1
	round := ticket / int64(b.parties)
	idx := int(ticket % int64(b.parties))
	if !b.arrive(idx / barrierFanIn) {
		b.await(round)
	}
	return idx == b.parties-1
}

// WaitParty is the fixed-identity arrival path: party id (0 <= id <
// parties) must be used by exactly one thread per round. It skips the
// ticket counter — the leaf is a function of id — so an arrival costs a
// single atomic add unless it completes its leaf. It returns true for the
// thread that completed the root, which here is exactly one per round: a
// party cannot re-arrive before its current round is released, so no
// cross-round substitution is possible.
func (b *Barrier) WaitParty(id int) (serial bool) {
	if h := b.waitObs.Load(); h != nil {
		t0 := time.Now()
		serial = b.waitParty(id)
		h.ObserveShard(id, int64(time.Since(t0)))
		return serial
	}
	return b.waitParty(id)
}

func (b *Barrier) waitParty(id int) (serial bool) {
	if id < 0 || id >= b.parties {
		panic(fmt.Sprintf("pthread: barrier party %d out of range [0,%d)", id, b.parties))
	}
	// This load cannot tear across rounds: the caller was released from
	// the previous round by observing gen >= round, and gen cannot pass
	// round without this party's arrival below.
	round := b.gen.Load()
	if b.arrive(id / barrierFanIn) {
		return true
	}
	b.await(round)
	return false
}

// Rounds reports how many rounds have completed.
func (b *Barrier) Rounds() int64 {
	return b.gen.Load()
}
