// Package obs is the repo's unified instrumentation layer: spans and
// instant events recorded into per-lane lock-free bounded ring buffers
// and exported as Chrome trace_event JSON (one lane per worker/rank, so
// a run renders as a timeline in chrome://tracing or Perfetto), plus
// counters, gauges read at scrape time, and power-of-two latency
// histograms rendered in Prometheus text exposition.
//
// The design rule is zero overhead when disabled: every recording
// method is safe on a nil receiver and returns immediately, so callers
// keep a possibly-nil *Lane or *Histogram and call through it
// unconditionally. The disabled hot path is one pointer (or atomic
// pointer) load and a predicted branch — no allocation, no time.Now.
// Names and lanes are registered once, up front, outside the hot path;
// the per-event record is a fixed-size slot written with a single CAS,
// so an enabled span costs two clock reads and two ring pushes.
//
// Concurrency contract: a lane's ring is multi-producer (any goroutine
// may push) and single-consumer (export drains under the trace's lock).
// Begin/End pairs must come from one goroutine per lane so the
// exported stack nests; lanes shared by several goroutines (for
// example an HTTP front-end lane) should record Complete or Instant
// events only. When a ring fills faster than it is drained, new events
// are dropped and counted — recording never blocks and never grows
// memory.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLaneCapacity is the per-lane ring size (events) when New is
// given no WithLaneCapacity option. At 48 bytes per slot this bounds a
// lane at ~768 KiB.
const DefaultLaneCapacity = 1 << 14

// Trace owns a set of lanes and a string table of pre-registered event
// names. The zero of *Trace (nil) is the disabled tracer: Name returns
// a zero handle and Lane returns nil, and every recording call through
// them is a no-op.
type Trace struct {
	start   time.Time
	laneCap int

	mu    sync.Mutex // guards names/lanes registration and export state
	names []nameEntry
	lanes []*Lane
}

type nameEntry struct {
	label   string
	argKeys []string
}

// Option configures a Trace.
type Option func(*Trace)

// WithLaneCapacity sets the per-lane ring size in events; it is rounded
// up to a power of two and floored at 8.
func WithLaneCapacity(n int) Option {
	return func(t *Trace) { t.laneCap = n }
}

// New builds an enabled tracer. Time zero of the trace is the moment of
// the call; all event timestamps are monotonic offsets from it.
func New(opts ...Option) *Trace {
	t := &Trace{start: time.Now(), laneCap: DefaultLaneCapacity}
	for _, o := range opts {
		o(t)
	}
	if t.laneCap < 8 {
		t.laneCap = 8
	}
	t.laneCap = ceilPow2(t.laneCap)
	// Name id 0 is reserved so the zero Name renders recognizably.
	t.names = []nameEntry{{label: "(unnamed)"}}
	return t
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Name is a pre-registered event-name handle: an index into the
// trace's string table plus the number of argument keys the name
// renders. Handles are registered during setup so recording an event
// never touches a string.
type Name struct {
	id   uint32
	args uint8
}

// Name registers (or finds) an event name and up to two argument keys
// used when rendering the event's int64 args in the exported JSON.
// Safe on a nil Trace, returning the zero handle.
func (t *Trace) Name(label string, argKeys ...string) Name {
	if t == nil {
		return Name{}
	}
	if len(argKeys) > 2 {
		argKeys = argKeys[:2]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, e := range t.names {
		if e.label == label {
			return Name{id: uint32(i), args: uint8(len(e.argKeys))}
		}
	}
	t.names = append(t.names, nameEntry{label: label, argKeys: argKeys})
	return Name{id: uint32(len(t.names) - 1), args: uint8(len(argKeys))}
}

// Lane registers (or finds, by label) a lane — one horizontal track in
// the exported timeline, conventionally one per worker or rank. Safe on
// a nil Trace, returning nil (the disabled lane).
func (t *Trace) Lane(label string) *Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		if l.label == label {
			return l
		}
	}
	l := &Lane{
		trace: t,
		id:    len(t.lanes),
		label: label,
		mask:  uint64(t.laneCap - 1),
		slots: make([]slot, t.laneCap),
	}
	for i := range l.slots {
		l.slots[i].seq.Store(uint64(i))
	}
	t.lanes = append(t.lanes, l)
	return l
}

// Drops sums the dropped-event counters across lanes.
func (t *Trace) Drops() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, l := range t.lanes {
		n += l.drops.Load()
	}
	return n
}

// Event kinds, stored in the slot's packed meta word.
const (
	kindBegin    = iota + 1 // ph "B"
	kindEnd                 // ph "E"
	kindInstant             // ph "i"
	kindComplete            // ph "X", with dur
)

// slot is one ring entry. seq is the Vyukov sequence number: slot i
// starts at i; a producer claims position pos when seq==pos and
// publishes by storing pos+1; the consumer frees it by storing
// pos+capacity.
type slot struct {
	seq  atomic.Uint64
	ts   int64 // ns since trace start
	dur  int64 // ns, Complete events only
	a0   int64
	a1   int64
	meta uint64 // name id | kind<<32 | argc<<40
}

// Lane is a bounded multi-producer single-consumer event ring. All
// recording methods are safe on a nil receiver (the disabled lane).
// Producer and consumer cursors live on their own cache lines so
// concurrent producers do not false-share with the exporter.
type Lane struct {
	trace *Trace
	id    int
	label string
	mask  uint64
	slots []slot

	_     [64]byte
	widx  atomic.Uint64 // producer cursor
	_     [56]byte
	ridx  atomic.Uint64 // consumer cursor (exporter only, under trace.mu)
	_     [56]byte
	drops atomic.Uint64

	hist []Event // drained history, retained for export; guarded by trace.mu
}

// Event is one drained ring record, exposed for export and tests.
type Event struct {
	Ts   int64 // ns since trace start
	Dur  int64 // ns; Complete events only
	A0   int64
	A1   int64
	Name uint32
	Kind uint8
	Argc uint8
}

func (l *Lane) push(kind uint8, n Name, ts, dur, a0, a1 int64) {
	meta := uint64(n.id) | uint64(kind)<<32 | uint64(n.args)<<40
	for {
		pos := l.widx.Load()
		s := &l.slots[pos&l.mask]
		seq := s.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if l.widx.CompareAndSwap(pos, pos+1) {
				s.ts, s.dur, s.a0, s.a1, s.meta = ts, dur, a0, a1, meta
				s.seq.Store(pos + 1)
				return
			}
		case d < 0:
			// The slot a full lap behind has not been drained: the ring
			// is full. Drop the new event; never block the hot path.
			l.drops.Add(1)
			return
		}
		// d > 0 or the CAS lost: another producer advanced widx between
		// our load and claim. Reload and retry.
	}
}

func (l *Lane) now() int64 { return int64(time.Since(l.trace.start)) }

// Begin opens a span on this lane. Pair with End from the same
// goroutine.
func (l *Lane) Begin(n Name) {
	if l == nil {
		return
	}
	l.push(kindBegin, n, l.now(), 0, 0, 0)
}

// BeginArgs is Begin with the name's registered args attached.
func (l *Lane) BeginArgs(n Name, a0, a1 int64) {
	if l == nil {
		return
	}
	l.push(kindBegin, n, l.now(), 0, a0, a1)
}

// End closes the most recent Begin of n on this lane.
func (l *Lane) End(n Name) {
	if l == nil {
		return
	}
	l.push(kindEnd, n, l.now(), 0, 0, 0)
}

// Instant records a zero-duration marker.
func (l *Lane) Instant(n Name) {
	if l == nil {
		return
	}
	l.push(kindInstant, n, l.now(), 0, 0, 0)
}

// InstantArgs is Instant with the name's registered args attached.
func (l *Lane) InstantArgs(n Name, a0, a1 int64) {
	if l == nil {
		return
	}
	l.push(kindInstant, n, l.now(), 0, a0, a1)
}

// Complete records a span that started at start and ends now — the
// caller measures start with time.Now only when the lane is enabled.
// Complete events are safe on lanes shared by several goroutines.
func (l *Lane) Complete(n Name, start time.Time) {
	if l == nil {
		return
	}
	l.push(kindComplete, n, int64(start.Sub(l.trace.start)), int64(time.Since(start)), 0, 0)
}

// CompleteArgs is Complete with the name's registered args attached.
func (l *Lane) CompleteArgs(n Name, start time.Time, a0, a1 int64) {
	if l == nil {
		return
	}
	l.push(kindComplete, n, int64(start.Sub(l.trace.start)), int64(time.Since(start)), a0, a1)
}

// Drops reports how many events this lane discarded because its ring
// was full.
func (l *Lane) Drops() uint64 {
	if l == nil {
		return 0
	}
	return l.drops.Load()
}

// Label returns the lane's registered label ("" for the nil lane).
func (l *Lane) Label() string {
	if l == nil {
		return ""
	}
	return l.label
}

// drain consumes every published event, appending to the lane's
// retained history. Caller holds trace.mu (single consumer).
func (l *Lane) drain() {
	capacity := uint64(len(l.slots))
	for {
		pos := l.ridx.Load()
		s := &l.slots[pos&l.mask]
		seq := s.seq.Load()
		if int64(seq)-int64(pos+1) < 0 {
			return // next slot not yet published
		}
		l.hist = append(l.hist, Event{
			Ts:   s.ts,
			Dur:  s.dur,
			A0:   s.a0,
			A1:   s.a1,
			Name: uint32(s.meta),
			Kind: uint8(s.meta >> 32),
			Argc: uint8(s.meta >> 40),
		})
		s.seq.Store(pos + capacity)
		l.ridx.Store(pos + 1)
	}
}

// Events drains every lane and reports the total number of retained
// events — the count an export would write (metadata aside).
func (t *Trace) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, l := range t.lanes {
		l.drain()
		n += len(l.hist)
	}
	return n
}
