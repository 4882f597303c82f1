package life

// Fault-layer tests for the Life engines: chaos-injected stragglers and
// full chaos matrices must leave the distributed runner bit-for-bit equal
// to the reference loop (chaos perturbs timing, never results), and context
// cancellation must stop both scale-out engines promptly without leaking a
// single worker goroutine.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cs31/internal/msgpass"
	"cs31/internal/pthread"
)

// TestDistStragglerBitForBit is the straggler experiment: one rank is
// chaos-delayed on every receive, so every halo exchange waits on the slow
// rank — and the result must still be bit-for-bit identical to the serial
// engine, because the halo protocol is synchronous-by-construction, not
// by-luck.
func TestDistStragglerBitForBit(t *testing.T) {
	stall := 50 * time.Millisecond
	gens := 3
	if testing.Short() {
		stall = 2 * time.Millisecond
	}
	g, err := NewGrid(24, 18, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(7, 0.35)
	want, wantUpdates := referenceRun(g, gens)

	dr := &DistRunner{
		G:     g,
		Ranks: 4,
		chaos: &msgpass.Chaos{
			Seed:      99,
			StallProb: 1,
			MaxStall:  stall,
			Ranks:     []int{1},
		},
	}
	stats, err := dr.RunCtx(context.Background(), gens)
	if err != nil {
		t.Fatal(err)
	}
	gridsMatch(t, "straggler dist vs reference", g, want)
	if stats.LiveUpdates != wantUpdates {
		t.Errorf("live updates %d, want %d", stats.LiveUpdates, wantUpdates)
	}
}

// distInboxBound is the inbox depth DistRunner.RunCtx's comment bounds a
// rank's halo traffic to: two exchanges' blocks from each neighbor side,
// plus four reduce messages.
const distInboxBound = 8

// inboxWithinBound fails the test when a run's point-to-point traffic
// filled some rank's inbox past distInboxBound.
func inboxWithinBound(t *testing.T, label string, ws msgpass.WorldStats) {
	t.Helper()
	if ws.InboxHWM > distInboxBound {
		t.Errorf("%s: an inbox reached %d messages, the halo protocol bounds it to %d", label, ws.InboxHWM, distInboxBound)
	}
}

// TestDistChaosMatrix is the chaos acceptance matrix: seeds 1..20 by world
// sizes {2, 8, 33} (33 > rows exercises the surplus-rank clamp), each run
// under delivery-delay and stall injection plus an armed watchdog, each
// checked bit-for-bit against the reference loop and against the inbox
// bound. Any ordering the chaos schedules can legally produce must land
// on the same board.
func TestDistChaosMatrix(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	const rows, cols, gens = 36, 20, 3
	fresh, err := NewGrid(rows, cols, Torus)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Randomize(31, 0.3)
	want, wantUpdates := referenceRun(fresh, gens)

	for seed := 1; seed <= seeds; seed++ {
		for _, ranks := range []int{2, 8, 33} {
			seed, ranks := seed, ranks
			t.Run(fmt.Sprintf("seed-%d/ranks-%d", seed, ranks), func(t *testing.T) {
				t.Parallel()
				g, err := NewGrid(rows, cols, Torus)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(31, 0.3)
				dr := &DistRunner{
					G:     g,
					Ranks: ranks,
					chaos: &msgpass.Chaos{
						Seed:      int64(seed),
						DelayProb: 0.5,
						MaxDelay:  300 * time.Microsecond,
						StallProb: 0.3,
						MaxStall:  300 * time.Microsecond,
					},
					watchdog: 5 * time.Second,
				}
				stats, err := dr.RunCtx(context.Background(), gens)
				if err != nil {
					t.Fatal(err)
				}
				gridsMatch(t, "chaos dist vs reference", g, want)
				if stats.LiveUpdates != wantUpdates {
					t.Errorf("live updates %d, want %d", stats.LiveUpdates, wantUpdates)
				}
				inboxWithinBound(t, "chaos dist", stats.Comm)
			})
		}
	}
}

// TestDistChaosHaloInboxBound is the regression test for a hang between
// the halo exchange and the closing Allreduce. Chaos delays every send of
// neighbors 5 and 6, so they fall behind while their children in the
// fan-in-4 collective tree (ranks 21-28) finish early and park reduce
// messages in 5's and 6's inboxes. Both halo sends of the exchange are
// posted before either receive, so with an inbox of 4 messages ranks 5
// and 6 could each block in a Send to the other; the watchdog then
// reported "rank 5 send(peer 6, tag 2) -> rank 6 send(peer 5, tag 1)". The
// world's default depth of 16 covers the 8-message worst case RunCtx
// documents, and every run's measured inbox mark must stay within it.
func TestDistChaosHaloInboxBound(t *testing.T) {
	const rows, cols, ranks, gens = 37, 130, 33, 8
	start, err := NewGrid(rows, cols, Torus)
	if err != nil {
		t.Fatal(err)
	}
	start.Randomize(42, 0.35)
	want, wantUpdates := referenceRun(start, gens)
	for seed := int64(1); seed <= 40; seed++ {
		g := start.Clone()
		dr := &DistRunner{
			G:     g,
			Ranks: ranks,
			chaos: &msgpass.Chaos{
				Seed:      seed,
				DelayProb: 1,
				MaxDelay:  300 * time.Microsecond,
				Ranks:     []int{5, 6},
			},
			watchdog: 300 * time.Millisecond,
		}
		stats, err := dr.RunCtx(context.Background(), gens)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		label := fmt.Sprintf("seed %d", seed)
		gridsMatch(t, label, g, want)
		statsMatch(t, label, stats, wantUpdates, gens)
		inboxWithinBound(t, label, stats.Comm)
	}
}

// TestDistRunCtxCancel: cancelling a distributed run mid-flight must
// surface the context error, leave the grid untouched (generations only
// commit on clean collection), and join every rank goroutine.
func TestDistRunCtxCancel(t *testing.T) {
	g, err := NewGrid(64, 64, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(3, 0.3)
	before := g.Clone()
	baseline := pthread.Live()

	ctx, cancel := context.WithCancel(context.Background())
	dr := &DistRunner{
		G:     g,
		Ranks: 4,
		// Stall every receive long enough that cancellation always lands
		// mid-run.
		chaos: &msgpass.Chaos{Seed: 1, StallProb: 1, MaxStall: 20 * time.Millisecond},
	}
	done := make(chan error, 1)
	go func() {
		_, err := dr.RunCtx(ctx, 1000)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled dist run did not return")
	}
	if !g.Equal(before) || g.Generation != before.Generation {
		t.Error("canceled run mutated the grid")
	}
	waitForLiveThreads(t, baseline)
}

// TestParallelRunCtxCancel: the shared-memory runner must stop within a
// bounded number of rounds of cancellation, uniformly across workers (no
// worker stranded at a barrier), leaving the grid on a whole-generation
// boundary.
func TestParallelRunCtxCancel(t *testing.T) {
	// "tree" names the runner's combining-tree barrier, the one barrier
	// every worker crosses once per generation.
	t.Run("tree", func(t *testing.T) {
		g, err := NewGrid(256, 256, Torus)
		if err != nil {
			t.Fatal(err)
		}
		g.Randomize(5, 0.3)
		baseline := pthread.Live()

		ctx, cancel := context.WithCancel(context.Background())
		pr := &ParallelRunner{G: g, Threads: 4}
		done := make(chan error, 1)
		go func() {
			_, err := pr.RunCtx(ctx, 1_000_000)
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("canceled parallel run did not return (worker stranded at a barrier?)")
		}
		if g.Generation >= 1_000_000 {
			t.Error("run completed despite cancellation")
		}
		waitForLiveThreads(t, baseline)

		// The grid must sit on a whole-generation boundary: advancing
		// the serial engine to the same generation reproduces it.
		fresh, err := NewGrid(256, 256, Torus)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Randomize(5, 0.3)
		fresh.Run(g.Generation)
		if !g.Equal(fresh) {
			t.Error("canceled run left the grid off a generation boundary")
		}
	})
}

// TestParallelRunCtxPreCanceled: an already-canceled context refuses the
// run outright without spawning workers.
func TestParallelRunCtxPreCanceled(t *testing.T) {
	g, err := NewGrid(8, 8, Torus)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pr := &ParallelRunner{G: g, Threads: 2}
	if _, err := pr.RunCtx(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if g.Generation != 0 {
		t.Errorf("pre-canceled run advanced the grid to generation %d", g.Generation)
	}
}

// TestDistRunCtxPreCanceled: an already-canceled context refuses the
// distributed run before any rank starts, leaving the grid untouched.
func TestDistRunCtxPreCanceled(t *testing.T) {
	g, err := NewGrid(8, 8, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(1, 0.4)
	before := g.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dr := &DistRunner{G: g, Ranks: 2}
	if _, err := dr.RunCtx(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if g.Generation != 0 || !g.Equal(before) {
		t.Errorf("pre-canceled run changed the grid (generation %d)", g.Generation)
	}
}

// TestDistWatchdogPassesCleanRun: an armed watchdog on a healthy
// distributed run must stay silent — the detector is sound.
func TestDistWatchdogPassesCleanRun(t *testing.T) {
	g, err := NewGrid(16, 16, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(11, 0.3)
	want, _ := referenceRun(g, 5)
	dr := &DistRunner{G: g, Ranks: 4, watchdog: 100 * time.Millisecond}
	if _, err := dr.RunCtx(context.Background(), 5); err != nil {
		t.Fatalf("watchdog tripped on a healthy run: %v", err)
	}
	gridsMatch(t, "watchdog dist vs reference", g, want)
}

// waitForLiveThreads polls pthread's live-thread gauge back down to the
// baseline captured before the run. Joins have already returned when the
// runners do, but the gauge decrement races the join wake-up by a few
// instructions, so poll briefly instead of asserting instantly.
func waitForLiveThreads(t *testing.T, baseline int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if live := pthread.Live(); live <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("live threads stuck at %d, baseline %d", pthread.Live(), baseline)
			return
		}
		time.Sleep(time.Millisecond)
	}
}
