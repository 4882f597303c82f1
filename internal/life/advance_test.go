package life

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cs31/internal/msgpass"
	"cs31/internal/pthread"
)

// cancelAfterPolls is a context whose Err reports nil for its first polls
// calls and context.Canceled from then on, so a test can cancel a run at
// an exact ctx poll instead of whenever the scheduler lands a cancel.
type cancelAfterPolls struct {
	context.Context
	polls int
}

func (c *cancelAfterPolls) Err() error {
	if c.polls == 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// seededGrid is a 16x16 torus board with a fixed random start.
func seededGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := NewGrid(16, 16, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(7, 0.35)
	return g
}

// TestAdvanceSerialCancelOnChunk: the serial engine polls ctx once per
// serialPollGens generations, so a cancel seen at the second poll stops a
// 20-generation run after exactly the first chunk.
func TestAdvanceSerialCancelOnChunk(t *testing.T) {
	g := seededGrid(t)
	ctx := &cancelAfterPolls{Context: context.Background(), polls: 1}
	if _, err := Advance(ctx, g, Engine{Workers: 1}, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
	if g.Generation != serialPollGens {
		t.Errorf("canceled serial run stopped at generation %d, want %d", g.Generation, serialPollGens)
	}
}

// TestAdvancePreCanceled: an already-canceled context runs nothing on any
// engine and leaves the board as it was.
func TestAdvancePreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		e    Engine
	}{{"serial", Engine{Workers: 1}}, {"parallel", Engine{Workers: 4}}, {"dist", Engine{Workers: 4, Dist: true}}} {
		g := seededGrid(t)
		before := g.Clone()
		if _, err := Advance(ctx, g, c.e, 10); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want an error wrapping context.Canceled", c.name, err)
		}
		if g.Generation != 0 || !g.Equal(before) {
			t.Errorf("%s: pre-canceled run changed the grid (generation %d)", c.name, g.Generation)
		}
	}
}

// TestAdvanceRefusesDistByCols: the dist engine shards by rows only, so a
// column-partitioned dist run is refused before any engine runs, serial
// worker counts included.
func TestAdvanceRefusesDistByCols(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := seededGrid(t)
		before := g.Clone()
		if _, err := Advance(context.Background(), g, Engine{Workers: workers, Partition: ByCols, Dist: true}, 5); err == nil {
			t.Errorf("workers %d: dist by columns accepted", workers)
		}
		if g.Generation != 0 || !g.Equal(before) {
			t.Errorf("workers %d: refused run changed the grid (generation %d)", workers, g.Generation)
		}
	}
}

// TestAdvanceRefusesTooManyWorkers: a run past MaxWorkers threads or
// ranks is refused before any thread starts, through Advance and through
// the runners' RunCtx, and leaves the board as it was.
func TestAdvanceRefusesTooManyWorkers(t *testing.T) {
	for _, workers := range []int{MaxWorkers + 1, 100_000, 1 << 40} {
		for _, c := range []struct {
			name string
			run  func(g *Grid) (*RunStats, error)
		}{
			{"parallel", func(g *Grid) (*RunStats, error) {
				return Advance(context.Background(), g, Engine{Workers: workers}, 5)
			}},
			{"parallel-cols", func(g *Grid) (*RunStats, error) {
				return Advance(context.Background(), g, Engine{Workers: workers, Partition: ByCols}, 5)
			}},
			{"dist", func(g *Grid) (*RunStats, error) {
				return Advance(context.Background(), g, Engine{Workers: workers, Dist: true}, 5)
			}},
			{"ParallelRunner", func(g *Grid) (*RunStats, error) {
				return (&ParallelRunner{G: g, Threads: workers}).RunCtx(context.Background(), 5)
			}},
			{"DistRunner", func(g *Grid) (*RunStats, error) {
				return (&DistRunner{G: g, Ranks: workers}).RunCtx(context.Background(), 5)
			}},
		} {
			g := seededGrid(t)
			before, live := g.Clone(), pthread.Live()
			_, err := c.run(g)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeds max %d", MaxWorkers)) {
				t.Errorf("%s on %d workers: got %v, want a refusal naming MaxWorkers", c.name, workers, err)
			}
			if g.Generation != 0 || !g.Equal(before) {
				t.Errorf("%s on %d workers: refused run changed the grid (generation %d)", c.name, workers, g.Generation)
			}
			if got := pthread.Live(); got != live {
				t.Errorf("%s on %d workers: %d pthread threads live after the refusal, %d before", c.name, workers, got, live)
			}
		}
	}
	// The bound itself passes the entry check.
	if _, err := enter(context.Background(), "parallel", MaxWorkers, 5); err != nil {
		t.Errorf("enter on MaxWorkers workers: %v", err)
	}
}

// TestAdvanceMatchesReference holds every engine Advance dispatches to the
// per-cell reference loop. Worker counts 0 and 1 both run the serial
// engine and report one worker; the run crosses a ctx-poll chunk boundary
// and ends inside a chunk.
func TestAdvanceMatchesReference(t *testing.T) {
	const gens = 2*serialPollGens + 3
	for _, c := range []struct {
		workers int
		part    Partition
		dist    bool
	}{{0, ByRows, false}, {1, ByRows, false}, {1, ByCols, false}, {4, ByRows, false}, {4, ByCols, false}, {4, ByRows, true}} {
		label := fmt.Sprintf("workers %d/%v/dist %v", c.workers, c.part, c.dist)
		g := seededGrid(t)
		want, wantUpdates := referenceRun(g, gens)
		stats, err := Advance(context.Background(), g, Engine{Workers: c.workers, Partition: c.part, Dist: c.dist}, gens)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		gridsMatch(t, label, g, want)
		statsMatch(t, label, stats, wantUpdates, gens)
		if c.workers <= 1 && stats.Workers != 1 {
			t.Errorf("%s: serial run reports %d workers, want 1", label, stats.Workers)
		}
	}
}

// TestAdvanceRefusesUnhonouredSettings: settings the named engine cannot
// honour are refused with an error wrapping errors.ErrUnsupported before
// any engine runs — columns or a per-round callback on the dist engine,
// and chaos or a watchdog anywhere but a dist run of 2 or more ranks — and
// the grid stays as it was.
func TestAdvanceRefusesUnhonouredSettings(t *testing.T) {
	onRound := func(*Grid) {}
	chaos := &msgpass.Chaos{Seed: 1, StallProb: 1, MaxStall: time.Millisecond}
	for _, c := range []struct {
		name string
		e    Engine
	}{
		{"dist by columns", Engine{Workers: 4, Partition: ByCols, Dist: true}},
		{"dist on-round", Engine{Workers: 4, Dist: true, OnRound: onRound}},
		{"dist-1 on-round", Engine{Workers: 1, Dist: true, OnRound: onRound}},
		{"serial chaos", Engine{Workers: 1, Chaos: chaos}},
		{"parallel chaos", Engine{Workers: 4, Chaos: chaos}},
		{"dist-1 chaos", Engine{Workers: 1, Dist: true, Chaos: chaos}},
		{"serial watchdog", Engine{Workers: 1, Watchdog: time.Second}},
		{"parallel watchdog", Engine{Workers: 4, Watchdog: time.Second}},
		{"dist-1 watchdog", Engine{Workers: 1, Dist: true, Watchdog: time.Second}},
	} {
		g := seededGrid(t)
		before := g.Clone()
		if _, err := Advance(context.Background(), g, c.e, 5); !errors.Is(err, errors.ErrUnsupported) {
			t.Errorf("%s: got %v, want an error wrapping errors.ErrUnsupported", c.name, err)
		}
		if g.Generation != 0 || !g.Equal(before) {
			t.Errorf("%s: refused run changed the grid (generation %d)", c.name, g.Generation)
		}
	}
	// A dist run of 2 ranks takes both, and chaos leaves the board exact.
	g := seededGrid(t)
	want, _ := referenceRun(g, 5)
	if _, err := Advance(context.Background(), g, Engine{Workers: 2, Dist: true, Chaos: chaos, Watchdog: 5 * time.Second}, 5); err != nil {
		t.Fatal(err)
	}
	gridsMatch(t, "dist-2 chaos and watchdog", g, want)
}

// cancelAtSecondPoll is a context that cancels itself at its second Err
// poll. The entry check passes, and the engine's next poll sees the
// cancel: the serial engine's poll after its first chunk, the parallel
// engine's poll after round 0, and the dist engine's world-start check.
type cancelAtSecondPoll struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int32
}

func newCancelAtSecondPoll(parent context.Context) *cancelAtSecondPoll {
	ctx, cancel := context.WithCancel(parent)
	return &cancelAtSecondPoll{Context: ctx, cancel: cancel}
}

func (c *cancelAtSecondPoll) Err() error {
	if c.polls.Add(1) >= 2 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestEngineContractMatchesReference is the engine contract. The serial
// engine, the parallel engine by rows and by columns, and the dist engine,
// each through Advance and the three concurrent ones also through their
// runner's RunCtx (the path cs31bench uses), must agree with the per-cell
// reference loop on the error class, the grid's generation and board,
// Rounds and LiveUpdates, and the worker count clamped to the partition
// extent. The cases cover n of -1, 0, 1 and 9, boards with fewer rows or
// words than workers, and a live, a nil, a pre-canceled and a
// mid-run-canceled context. A run canceled mid-way either completes
// in full or fails wrapping context.Canceled with the grid on a whole
// generation; the dist engine's grid stays untouched.
func TestEngineContractMatchesReference(t *testing.T) {
	type engine struct {
		name string
		part Partition
		dist bool
	}
	engines := []engine{{"serial", ByRows, false}, {"rows", ByRows, false}, {"cols", ByCols, false}, {"dist", ByRows, true}}
	type runFn func(ctx context.Context, g *Grid, e engine, workers, n int) (*RunStats, error)
	paths := []struct {
		name string
		run  runFn
	}{
		{"Advance", func(ctx context.Context, g *Grid, e engine, workers, n int) (*RunStats, error) {
			return Advance(ctx, g, Engine{Workers: workers, Partition: e.part, Dist: e.dist}, n)
		}},
		{"RunCtx", func(ctx context.Context, g *Grid, e engine, workers, n int) (*RunStats, error) {
			if e.dist {
				dr := &DistRunner{G: g, Ranks: workers}
				st, err := dr.RunCtx(ctx, n)
				if dr.Ranks != workers {
					t.Errorf("dist runner wrote Ranks = %d, set %d", dr.Ranks, workers)
				}
				return st, err
			}
			pr := &ParallelRunner{G: g, Threads: workers, partition: e.part}
			st, err := pr.RunCtx(ctx, n)
			if pr.Threads != workers || pr.partition != e.part {
				t.Errorf("parallel runner wrote Threads = %d, partition %v; set %d, %v", pr.Threads, pr.partition, workers, e.part)
			}
			return st, err
		}},
	}
	// Every canceled context derives from parent, so the test's exit
	// releases the ones a run never polled twice.
	parent, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	ctxs := []struct {
		name string
		make func() context.Context
	}{
		{"live", context.Background},
		{"nil", func() context.Context { return nil }},
		{"pre-canceled", func() context.Context {
			ctx, cancel := context.WithCancel(parent)
			cancel()
			return ctx
		}},
		{"mid-run", func() context.Context { return newCancelAtSecondPoll(parent) }},
	}
	const maxGens = 9
	boards := [][2]int{{1, 1}, {1, 65}, {3, 200}}

	for _, path := range paths {
		for _, e := range engines {
			if path.name == "RunCtx" && e.name == "serial" {
				continue // the serial engine has no runner
			}
			workerCounts := []int{1, 2, 8}
			if e.name == "serial" {
				workerCounts = []int{1}
			}
			t.Run(path.name+"/"+e.name, func(t *testing.T) {
				for _, sh := range boards {
					start, err := NewGrid(sh[0], sh[1], Torus)
					if err != nil {
						t.Fatal(err)
					}
					start.Randomize(int64(sh[0]*1000+sh[1]), 0.4)
					// refs[k] is the board after k reference generations,
					// updates[k] the cells that changed on the way there.
					refs, updates := []*Grid{start.Clone()}, []int64{0}
					for k := 1; k <= maxGens; k++ {
						next := refs[k-1].Clone()
						updates = append(updates, updates[k-1]+next.stepReference())
						refs = append(refs, next)
					}
					for _, workers := range workerCounts {
						wantWorkers := min(workers, start.extent(e.part))
						// Advance runs one worker on the serial engine.
						distRuns := e.dist && (path.name == "RunCtx" || workers > 1)
						for _, n := range []int{-1, 0, 1, maxGens} {
							for _, c := range ctxs {
								label := fmt.Sprintf("%dx%d/workers-%d/n=%d/%s ctx", sh[0], sh[1], workers, n, c.name)
								g := start.Clone()
								st, err := path.run(c.make(), g, e, workers, n)
								switch {
								case n < 0:
									if !errors.Is(err, errNegativeGens) {
										t.Errorf("%s: got %v, want a negative-generations error", label, err)
									}
									gridsMatch(t, label, g, refs[0])
								case c.name == "pre-canceled":
									if !errors.Is(err, context.Canceled) {
										t.Errorf("%s: got %v, want an error wrapping context.Canceled", label, err)
									}
									gridsMatch(t, label, g, refs[0])
								case err != nil:
									if c.name != "mid-run" || !errors.Is(err, context.Canceled) {
										t.Errorf("%s: %v", label, err)
										continue
									}
									if distRuns && g.Generation != 0 {
										t.Errorf("%s: canceled dist run moved the grid to generation %d", label, g.Generation)
									}
									if g.Generation < 0 || g.Generation > n {
										t.Errorf("%s: canceled run left the grid at generation %d", label, g.Generation)
										continue
									}
									gridsMatch(t, label, g, refs[g.Generation])
								default:
									gridsMatch(t, label, g, refs[n])
									statsMatch(t, label, st, updates[n], n)
									if st.Workers != wantWorkers {
										t.Errorf("%s: Workers = %d, want %d", label, st.Workers, wantWorkers)
									}
								}
								if err != nil && st != nil {
									t.Errorf("%s: failed run returned stats %+v", label, st)
								}
							}
						}
					}
				}
			})
		}
	}
}
