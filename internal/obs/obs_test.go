package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisabledNoOps: the nil trace/lane/metric path must be callable
// from every recording site without panicking or doing work.
func TestDisabledNoOps(t *testing.T) {
	var tr *Trace
	n := tr.Name("anything", "a", "b")
	lane := tr.Lane("worker 0")
	if lane != nil {
		t.Fatalf("nil trace returned non-nil lane")
	}
	lane.Begin(n)
	lane.BeginArgs(n, 1, 2)
	lane.End(n)
	lane.Instant(n)
	lane.InstantArgs(n, 1, 2)
	lane.Complete(n, time.Time{})
	lane.CompleteArgs(n, time.Time{}, 1, 2)
	if lane.Drops() != 0 || lane.Label() != "" {
		t.Fatalf("nil lane reported state")
	}
	if tr.Drops() != 0 || tr.Events() != 0 {
		t.Fatalf("nil trace reported state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil trace export: %v", err)
	}
	var h *Histogram
	h.Observe(5)
	h.ObserveShard(3, 5)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram counted")
	}
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter held a value")
	}
}

// TestRingWraparoundDrops: a full ring drops new events (never blocks,
// never overwrites) and counts every drop; draining frees the slots.
func TestRingWraparoundDrops(t *testing.T) {
	tr := New(WithLaneCapacity(8))
	lane := tr.Lane("tiny")
	n := tr.Name("ev")
	for i := 0; i < 20; i++ {
		lane.Instant(n)
	}
	if got := lane.Drops(); got != 12 {
		t.Fatalf("drops = %d, want 12", got)
	}
	if got := tr.Events(); got != 8 {
		t.Fatalf("retained events = %d, want 8 (ring capacity)", got)
	}
	// Draining freed the ring: the next capacity-many events fit again.
	for i := 0; i < 8; i++ {
		lane.Instant(n)
	}
	if got := lane.Drops(); got != 12 {
		t.Fatalf("drops after drain = %d, want still 12", got)
	}
	if got := tr.Events(); got != 16 {
		t.Fatalf("retained events = %d, want 16", got)
	}
}

// TestContention33Goroutines: 33 goroutines append spans — some on
// private lanes, some sharing one MPSC lane — while a competing
// goroutine exports concurrently. Run under -race this is the data-race
// proof; the final export must account for every event or drop.
func TestContention33Goroutines(t *testing.T) {
	const goroutines = 33
	const perG = 500
	// Small enough that the shared lane can fill between exporter drains
	// (exercising drop accounting), large enough that each private
	// lane's B/E stream always fits (so span stacks stay matched).
	tr := New(WithLaneCapacity(1 << 11))
	shared := tr.Lane("shared")
	nSpan := tr.Name("span")
	nEv := tr.Name("ev", "g")

	lanes := make([]*Lane, goroutines)
	for i := range lanes {
		if i%3 == 0 {
			lanes[i] = shared
		} else {
			lanes[i] = tr.Lane(fmt.Sprintf("worker %d", i))
		}
	}

	stop := make(chan struct{})
	var exporter sync.WaitGroup
	exporter.Add(1)
	go func() {
		defer exporter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := tr.WriteChromeTrace(&buf); err != nil {
					t.Errorf("concurrent export: %v", err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lane := lanes[i]
			for j := 0; j < perG; j++ {
				if lane == shared {
					// Shared lanes record only Complete/Instant events.
					lane.InstantArgs(nEv, int64(i), 0)
				} else {
					lane.Begin(nSpan)
					lane.End(nSpan)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	exporter.Wait()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("final export: %v", err)
	}
	sum, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("final trace invalid: %v", err)
	}

	// Tally what should exist: shared writers emit 1 event per
	// iteration, private writers 2 (B+E). Every push either survived to
	// the export or was counted as a drop — nothing vanishes.
	var want, sharedWriters int
	for i := 0; i < goroutines; i++ {
		if i%3 == 0 {
			want += perG
			sharedWriters++
		} else {
			want += 2 * perG
		}
	}
	got := sum.Events + int(tr.Drops())
	if got != want {
		t.Fatalf("events(%d) + drops(%d) = %d, want %d", sum.Events, tr.Drops(), got, want)
	}
	if wantLanes := 1 + goroutines - sharedWriters; len(sum.Lanes) != wantLanes {
		t.Fatalf("lane count = %d, want %d", len(sum.Lanes), wantLanes)
	}
}

// TestExportStructure: a small deterministic trace round-trips through
// export and the validator with the expected lanes and sequences.
func TestExportStructure(t *testing.T) {
	tr := New()
	lane := tr.Lane("worker 0")
	gen := tr.Name("generation")
	bar := tr.Name("barrier-wait")
	halo := tr.Name("halo", "peer", "tag")
	for i := 0; i < 3; i++ {
		lane.Begin(gen)
		start := time.Now()
		lane.CompleteArgs(halo, start, 1, 42)
		lane.Begin(bar)
		lane.End(bar)
		lane.End(gen)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	sum, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, buf.String())
	}
	wantSeq := []string{}
	for i := 0; i < 3; i++ {
		wantSeq = append(wantSeq, "generation/B", "halo/X", "barrier-wait/B", "barrier-wait/E", "generation/E")
	}
	gotSeq := sum.PerLane["worker 0"]
	if strings.Join(gotSeq, " ") != strings.Join(wantSeq, " ") {
		t.Fatalf("lane sequence:\n got %v\nwant %v", gotSeq, wantSeq)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"peer":1`)) || !bytes.Contains(buf.Bytes(), []byte(`"tag":42`)) {
		t.Fatalf("args missing from export:\n%s", buf.String())
	}
	// A second export is additive, not destructive.
	var buf2 bytes.Buffer
	if err := tr.WriteChromeTrace(&buf2); err != nil {
		t.Fatalf("re-export: %v", err)
	}
	if sum2, err := ValidateChromeTrace(buf2.Bytes()); err != nil || sum2.Events != sum.Events {
		t.Fatalf("re-export changed the trace: %v", err)
	}
}

// TestValidateRejects: the validator actually catches malformed traces.
func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"unsorted ts": `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"w"}},
			{"name":"a","ph":"i","ts":5,"pid":1,"tid":0,"s":"t"},
			{"name":"b","ph":"i","ts":1,"pid":1,"tid":0,"s":"t"}]}`,
		"unmatched E": `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"w"}},
			{"name":"a","ph":"E","ts":1,"pid":1,"tid":0}]}`,
		"mismatched name": `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"w"}},
			{"name":"a","ph":"B","ts":1,"pid":1,"tid":0},
			{"name":"b","ph":"E","ts":2,"pid":1,"tid":0}]}`,
		"unclosed span": `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"w"}},
			{"name":"a","ph":"B","ts":1,"pid":1,"tid":0}]}`,
		"missing lane metadata": `{"traceEvents":[
			{"name":"a","ph":"i","ts":1,"pid":1,"tid":7,"s":"t"}]}`,
		"X without dur": `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"w"}},
			{"name":"a","ph":"X","ts":1,"pid":1,"tid":0}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted a malformed trace", name)
		}
	}
}
