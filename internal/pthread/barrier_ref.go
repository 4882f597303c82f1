package pthread

import (
	"fmt"
	"sync"
)

// RefBarrier is the centralized barrier this package shipped before the
// combining tree: one mutex and one condition variable that every party
// serializes through twice per round. It is retained verbatim as the
// differential-test reference for Barrier — same constructor contract,
// same Wait/Rounds semantics, same PTHREAD_BARRIER_SERIAL_THREAD
// convention — and as the "ref" side of BenchmarkBarrierWait, which times
// a crossing of each.
type RefBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	round   int64
}

// NewRefBarrier creates a reference barrier for parties threads (>= 1).
func NewRefBarrier(parties int) (*RefBarrier, error) {
	if parties < 1 {
		return nil, fmt.Errorf("pthread: barrier needs at least 1 party, got %d", parties)
	}
	b := &RefBarrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b, nil
}

// Wait blocks until all parties have called Wait this round.
func (b *RefBarrier) Wait() (serial bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	b.waiting++
	if b.waiting == b.parties {
		// Last arrival releases the round.
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return true
	}
	for round == b.round {
		b.cond.Wait()
	}
	return false
}

// Rounds reports how many rounds have completed.
func (b *RefBarrier) Rounds() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.round
}
