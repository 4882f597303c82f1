package life

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"cs31/internal/obs"
)

// filterSeq keeps only the "name/ph" entries whose name is in keep —
// runner-level spans are deterministic program order, while the
// message-level events nested inside them (send/recv inside a
// collective) depend on tree topology and are asserted by containment.
func filterSeq(seq []string, keep ...string) []string {
	set := map[string]bool{}
	for _, k := range keep {
		set[k] = true
	}
	var out []string
	for _, e := range seq {
		name := e[:strings.LastIndexByte(e, '/')]
		if set[name] {
			out = append(out, e)
		}
	}
	return out
}

func seqEqual(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: sequence %v, want %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d is %q, want %q (full: %v)", label, i, got[i], want[i], got)
		}
	}
}

// TestParallelRunnerTrace golden-matches the per-worker timeline: each
// worker lane records exactly [generation B/E, barrier-wait B/E] per
// generation, in program order, and the exported JSON passes the
// Chrome trace-event structural validator.
func TestParallelRunnerTrace(t *testing.T) {
	const threads, gens = 3, 4
	g, err := NewGrid(16, 16, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(7, 0.3)

	tr := obs.New()
	waits := obs.NewHistogram(threads)
	pr := &ParallelRunner{G: g, Threads: threads, Trace: tr, BarrierWaits: waits}
	if _, err := pr.RunCtx(context.Background(), gens); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace failed validation: %v", err)
	}

	var want []string
	for i := 0; i < gens; i++ {
		want = append(want, "generation/B", "generation/E", "barrier-wait/B", "barrier-wait/E")
	}
	for i := 0; i < threads; i++ {
		label := fmt.Sprintf("worker %d", i)
		seq, ok := sum.PerLane[label]
		if !ok {
			t.Fatalf("no lane %q in trace (lanes: %v)", label, sum.Lanes)
		}
		seqEqual(t, label, seq, want)
	}
	if len(sum.PerLane) != threads {
		t.Fatalf("trace has %d lanes, want %d", len(sum.PerLane), threads)
	}
	if tr.Drops() != 0 {
		t.Fatalf("dropped %d events on an undersubscribed run", tr.Drops())
	}
	// Every barrier crossing landed in the histogram.
	if got := waits.Snapshot().Count; got != threads*gens {
		t.Fatalf("barrier-wait histogram has %d observations, want %d", got, threads*gens)
	}
}

// distTraceGolden is the dist runner's span sequence on one lane for the
// given windows: a generation span per generation, and in the first
// generation of each window the halo-exchange span, which closes before
// the kernel runs.
func distTraceGolden(windows ...int) []string {
	var want []string
	for _, k := range windows {
		want = append(want, "generation/B", "halo-exchange/B", "halo-exchange/E", "generation/E")
		for j := 1; j < k; j++ {
			want = append(want, "generation/B", "generation/E")
		}
	}
	return want
}

// TestDistRunnerTrace checks the distributed timeline: one lane per
// rank, the runner's generation/halo-exchange nesting golden-matched
// in program order, the world's own send/recv/allreduce events present
// on every rank's lane, and the protocol's collectives (scatter,
// allreduce, gather) in program order. 2 generations on 6-row bands are
// one window.
func TestDistRunnerTrace(t *testing.T) {
	const ranks, gens = 2, 2
	g, err := NewGrid(12, 12, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(11, 0.3)
	ref := g.Clone()

	tr := obs.New()
	dr := &DistRunner{G: g, Ranks: ranks, Trace: tr}
	stats, err := dr.RunCtx(context.Background(), gens)
	if err != nil {
		t.Fatal(err)
	}
	refUpdates := ref.Run(gens)
	if !g.Equal(ref) || stats.LiveUpdates != refUpdates {
		t.Fatalf("traced run diverged from serial reference")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace failed validation: %v", err)
	}

	// Runner-level spans nest deterministically.
	want := distTraceGolden(2)
	for r := 0; r < ranks; r++ {
		label := fmt.Sprintf("rank %d", r)
		seq, ok := sum.PerLane[label]
		if !ok {
			t.Fatalf("no lane %q in trace (lanes: %v)", label, sum.Lanes)
		}
		seqEqual(t, label, filterSeq(seq, "generation", "halo-exchange"), want)

		// The world's message and collective events ride the same lane:
		// the window's halo sends/recvs and the closing allreduce.
		for _, needed := range []string{"send/X", "recv/X", "allreduce/B", "allreduce/E"} {
			found := false
			for _, e := range seq {
				if e == needed {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("lane %q missing %q (events: %v)", label, needed, seq)
			}
		}
		// The protocol's collectives, in program order on every rank.
		seqEqual(t, label+" collectives", filterSeq(seq, "scatter", "allreduce", "gather"),
			[]string{"scatter/B", "scatter/E", "allreduce/B", "allreduce/E", "gather/B", "gather/E"})
	}
	if len(sum.PerLane) != ranks {
		t.Fatalf("trace has %d lanes, want %d", len(sum.PerLane), ranks)
	}
	if tr.Drops() != 0 {
		t.Fatalf("dropped %d events", tr.Drops())
	}
}

// TestDistRunnerTracePacked re-runs the traced distributed protocol on
// multi-word packed rows over two windows: 7 generations on 5-row bands
// are a 5-generation window and a 2-generation one.
func TestDistRunnerTracePacked(t *testing.T) {
	const ranks, gens = 2, 7
	g, err := NewGrid(10, 130, Torus) // cols > 64 exercises multi-word rows
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(13, 0.3)
	ref, refUpdates := referenceRun(g, gens)

	tr := obs.New()
	dr := &DistRunner{G: g, Ranks: ranks, Trace: tr}
	stats, err := dr.RunCtx(context.Background(), gens)
	if err != nil {
		t.Fatal(err)
	}
	gridsMatch(t, "traced packed dist vs reference", g, ref)
	statsMatch(t, "traced packed dist vs reference", stats, refUpdates, gens)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace failed validation: %v", err)
	}
	want := distTraceGolden(5, 2)
	for r := 0; r < ranks; r++ {
		label := fmt.Sprintf("rank %d", r)
		seqEqual(t, label, filterSeq(sum.PerLane[label], "generation", "halo-exchange"), want)
	}
}

// TestAdvanceSerialTrace: a traced serial Advance of n generations records
// n properly nested "generation" spans on one "serial" lane, across ctx
// poll chunks, and OnRound sees generations 1..n in order.
func TestAdvanceSerialTrace(t *testing.T) {
	const gens = 2*serialPollGens + 3
	g := seededGrid(t)
	want, wantUpdates := referenceRun(g, gens)
	tr := obs.New()
	var seen []int
	e := Engine{Workers: 1, Trace: tr, OnRound: func(g *Grid) { seen = append(seen, g.Generation) }}
	stats, err := Advance(context.Background(), g, e, gens)
	if err != nil {
		t.Fatal(err)
	}
	gridsMatch(t, "traced serial vs reference", g, want)
	statsMatch(t, "traced serial vs reference", stats, wantUpdates, gens)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace failed validation: %v", err)
	}
	if len(sum.PerLane) != 1 {
		t.Fatalf("trace has %d lanes (%v), want the one serial lane", len(sum.PerLane), sum.Lanes)
	}
	var wantSeq []string
	for i := 0; i < gens; i++ {
		wantSeq = append(wantSeq, "generation/B", "generation/E")
	}
	seqEqual(t, "serial", sum.PerLane["serial"], wantSeq)

	if len(seen) != gens {
		t.Fatalf("OnRound saw generations %v, want 1..%d", seen, gens)
	}
	for i, gen := range seen {
		if gen != i+1 {
			t.Errorf("callback %d saw generation %d, want %d", i, gen, i+1)
		}
	}
}
