package life

import (
	"context"
	"errors"
	"fmt"
	"testing"
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
	if _, err := Advance(ctx, g, 1, ByRows, false, 20); !errors.Is(err, context.Canceled) {
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
		name    string
		workers int
		dist    bool
	}{{"serial", 1, false}, {"parallel", 4, false}, {"dist", 4, true}} {
		g := seededGrid(t)
		before := g.Clone()
		if _, err := Advance(ctx, g, c.workers, ByRows, c.dist, 10); !errors.Is(err, context.Canceled) {
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
		if _, err := Advance(context.Background(), g, workers, ByCols, true, 5); err == nil {
			t.Errorf("workers %d: dist by columns accepted", workers)
		}
		if g.Generation != 0 || !g.Equal(before) {
			t.Errorf("workers %d: refused run changed the grid (generation %d)", workers, g.Generation)
		}
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
		stats, err := Advance(context.Background(), g, c.workers, c.part, c.dist, gens)
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
