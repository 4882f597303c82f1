package life

// Differential equivalence: the SWAR kernel behind Step, RunCounted, and
// the ParallelRunner tiles must be bit-for-bit identical to the per-cell
// Lab 6 loop (stepReference) — boards AND live-update counts — for every
// edge ring, partition, grid shape (including degenerate 1xN / Nx1 / 2x2
// grids where torus wrapping double-counts neighbors), and over many
// generations.

import (
	"context"
	"fmt"
	"testing"
)

// edgeRings are the start boards the engine differentials sweep, every
// one a torus. "torus" keeps the random fill. The other three overwrite
// the board's edge ring (its first and last rows and columns) so that at
// generation 0 the ghost cells the wrap brings in hold what the dropped
// dead, alive and mirror boundaries synthesized: "dead-edges" clears the
// ring, so no live neighbor crosses the seam; "alive-edges" fills it, so
// every ghost cell is live, the corners too; "mirror" copies the first
// column onto the last and then the first row onto the last, so each
// ghost cell holds the state of the edge cell it flanks. The subtests
// keep the names those boundaries gave them.
var edgeRings = []struct {
	name string
	lay  func(g *Grid)
}{
	{"torus", func(*Grid) {}},
	{"dead-edges", func(g *Grid) { fillEdgeRing(g, false) }},
	{"alive-edges", func(g *Grid) { fillEdgeRing(g, true) }},
	{"mirror", mirrorEdgeRing},
}

// fillEdgeRing makes every cell of g's first and last rows and columns
// live or dead.
func fillEdgeRing(g *Grid, live bool) {
	for r := 0; r < g.Rows; r++ {
		g.Set(r, 0, live)
		g.Set(r, g.Cols-1, live)
	}
	for c := 0; c < g.Cols; c++ {
		g.Set(0, c, live)
		g.Set(g.Rows-1, c, live)
	}
}

// mirrorEdgeRing makes g's last column repeat its first, then its last
// row repeat its first, so the wrap brings each edge cell its own state.
func mirrorEdgeRing(g *Grid) {
	for r := 0; r < g.Rows; r++ {
		g.Set(r, g.Cols-1, g.Alive(r, 0))
	}
	for c := 0; c < g.Cols; c++ {
		g.Set(g.Rows-1, c, g.Alive(0, c))
	}
}

// referenceRun advances a clone of g through n generations of the per-cell
// reference loop and returns it with the number of cell state changes —
// the oracle every engine's board and LiveUpdates are held to.
func referenceRun(g *Grid, n int) (*Grid, int64) {
	ref := g.Clone()
	var changed int64
	for i := 0; i < n; i++ {
		changed += ref.stepReference()
	}
	return ref, changed
}

func gridsMatch(t *testing.T, label string, got, want *Grid) {
	t.Helper()
	if !got.Equal(want) {
		t.Errorf("%s: grids diverged\ngot:\n%s\nwant:\n%s", label, got, want)
	}
	if got.Generation != want.Generation {
		t.Errorf("%s: generation %d, want %d", label, got.Generation, want.Generation)
	}
}

// statsMatch holds a scale-out run's statistics to the reference run.
func statsMatch(t *testing.T, label string, got *RunStats, wantUpdates int64, gens int) {
	t.Helper()
	if got.LiveUpdates != wantUpdates {
		t.Errorf("%s: live updates %d, reference counted %d", label, got.LiveUpdates, wantUpdates)
	}
	if got.Rounds != gens {
		t.Errorf("%s: rounds %d, want %d", label, got.Rounds, gens)
	}
}

// TestStepMatchesReference steps the serial engine and the reference in
// lockstep, one generation at a time, so a divergence is caught at the
// generation it first appears.
func TestStepMatchesReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 5}, {5, 2}, {3, 3}, {16, 16}, {13, 31}, {64, 17}}
	for _, ring := range edgeRings {
		for _, sh := range shapes {
			rows, cols := sh[0], sh[1]
			t.Run(fmt.Sprintf("%s/%dx%d", ring.name, rows, cols), func(t *testing.T) {
				g, err := NewGrid(rows, cols, Torus)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(42, 0.35)
				ring.lay(g)
				ref := g.Clone()
				for gen := 1; gen <= 8; gen++ {
					g.Step()
					ref.stepReference()
					gridsMatch(t, fmt.Sprintf("serial kernel, generation %d", gen), g, ref)
					if t.Failed() {
						return
					}
				}
			})
		}
	}
}

func TestParallelMatchesReference(t *testing.T) {
	for _, ring := range edgeRings {
		for _, part := range []Partition{ByRows, ByCols} {
			for _, threads := range []int{1, 2, 3, 7} {
				ring, part, threads := ring, part, threads
				t.Run(fmt.Sprintf("%s/%v/threads-%d", ring.name, part, threads), func(t *testing.T) {
					g, err := NewGrid(19, 23, Torus)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(7, 0.3)
					ring.lay(g)
					const gens = 6
					want, wantUpdates := referenceRun(g, gens)
					pr := &ParallelRunner{G: g, Threads: threads, partition: part}
					stats, err := pr.RunCtx(context.Background(), gens)
					if err != nil {
						t.Fatal(err)
					}
					gridsMatch(t, "parallel kernel", g, want)
					statsMatch(t, "parallel kernel", stats, wantUpdates, gens)
				})
			}
		}
	}
}

// TestParallelStatsMatchSerialKernel pins the LiveUpdates count the workers
// report to the count the per-cell loop computes serially.
func TestParallelStatsMatchSerialKernel(t *testing.T) {
	g, err := NewGrid(24, 24, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(99, 0.4)
	const gens = 5
	_, serialChanged := referenceRun(g, gens)
	pr := &ParallelRunner{G: g, Threads: 4}
	stats, err := pr.RunCtx(context.Background(), gens)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LiveUpdates != serialChanged {
		t.Errorf("parallel LiveUpdates = %d, serial loop counted %d", stats.LiveUpdates, serialChanged)
	}
}

// TestParallelSurplusThreads runs with more threads than the partition
// extent (labd accepts up to 64 threads on arbitrarily small grids).
// Surplus threads must be clamped away, not left owning empty tiles that
// could recompute or double-count an edge. The grid is 9x130 (3 words per
// row) so Threads=12 exceeds both the row and the word extent.
func TestParallelSurplusThreads(t *testing.T) {
	for _, ring := range edgeRings {
		for _, part := range []Partition{ByRows, ByCols} {
			ring, part := ring, part
			t.Run(fmt.Sprintf("%s/%v", ring.name, part), func(t *testing.T) {
				g, err := NewGrid(9, 130, Torus)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(17, 0.35)
				ring.lay(g)
				const gens = 6
				want, wantUpdates := referenceRun(g, gens)
				pr := &ParallelRunner{G: g, Threads: 12, partition: part}
				stats, err := pr.RunCtx(context.Background(), gens)
				if err != nil {
					t.Fatal(err)
				}
				gridsMatch(t, "surplus threads", g, want)
				statsMatch(t, "surplus threads", stats, wantUpdates, gens)
				extent := 9
				if part == ByCols {
					extent = 3
				}
				if stats.Workers != extent || pr.Threads != 12 {
					t.Errorf("Workers = %d, Threads = %d; want %d workers and Threads left at 12", stats.Workers, pr.Threads, extent)
				}
			})
		}
	}
}

// TestStepBlockEmptyRange pins the empty-tile no-op: a zero-width or
// zero-height block must report no changes and leave the scratch buffer
// untouched, even when its bounds sit on the grid edge.
func TestStepBlockEmptyRange(t *testing.T) {
	g, err := NewGrid(6, 130, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(5, 0.5)
	before := append([]uint64(nil), g.next...)
	for _, blk := range [][4]int{
		{0, g.Rows, g.wpr, g.wpr},  // empty word tile at the right edge
		{g.Rows, g.Rows, 0, g.wpr}, // empty row tile at the bottom edge
		{0, g.Rows, 1, 1},
		{2, 2, 0, g.wpr},
	} {
		if ch := g.stepPackedBlock(blk[0], blk[1], blk[2], blk[3]); ch != 0 {
			t.Errorf("stepPackedBlock(%v) reported %d changes, want 0", blk, ch)
		}
	}
	for i := range before {
		if g.next[i] != before[i] {
			t.Fatalf("empty stepPackedBlock wrote to scratch buffer at word %d", i)
		}
	}
}

// TestRunnerMatchesReferenceRunner drives one ParallelRunner through a run
// in several Run calls of different lengths and holds the result to the
// reference run: same board, same generation count, and LiveUpdates and
// Rounds that sum to the reference's, with the runner's own fields never
// rewritten between calls.
func TestRunnerMatchesReferenceRunner(t *testing.T) {
	for _, ring := range edgeRings {
		for _, part := range []Partition{ByRows, ByCols} {
			for _, threads := range []int{1, 2, 3, 5, 12} {
				ring, part, threads := ring, part, threads
				t.Run(fmt.Sprintf("%s/%v/threads-%d", ring.name, part, threads), func(t *testing.T) {
					g, err := NewGrid(11, 200, Torus)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(23, 0.35)
					ring.lay(g)
					want, wantUpdates := referenceRun(g, 6)
					pr := &ParallelRunner{G: g, Threads: threads, partition: part}
					var total RunStats
					for _, gens := range []int{1, 2, 3} {
						stats, err := pr.RunCtx(context.Background(), gens)
						if err != nil {
							t.Fatal(err)
						}
						total.LiveUpdates += stats.LiveUpdates
						total.Rounds += stats.Rounds
					}
					gridsMatch(t, "reused runner vs reference run", g, want)
					statsMatch(t, "reused runner vs reference run", &total, wantUpdates, 6)
					if pr.Threads != threads {
						t.Errorf("runner's Threads rewritten to %d, want %d", pr.Threads, threads)
					}
				})
			}
		}
	}
}

// TestRunCountedMatchesParallelStats pins Grid.RunCounted — the serial twin
// of LiveUpdates — to the parallel reduction.
func TestRunCountedMatchesParallelStats(t *testing.T) {
	g, err := NewGrid(17, 13, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(71, 0.4)
	serial := g.Clone()
	const gens = 7
	pr := &ParallelRunner{G: g, Threads: 5}
	stats, err := pr.RunCtx(context.Background(), gens)
	if err != nil {
		t.Fatal(err)
	}
	if counted := serial.RunCounted(gens); counted != stats.LiveUpdates {
		t.Errorf("RunCounted = %d, parallel LiveUpdates = %d", counted, stats.LiveUpdates)
	}
	gridsMatch(t, "RunCounted grid", serial, g)
}

// TestParallelRunAllocations pins the per-generation allocation count of
// the sharded runner's hot loop at zero: the cost of a Run is a fixed
// setup (threads, barrier, shards) regardless of how many generations it
// advances, so the difference between a long run and a short run over the
// same fixed-size grid must be allocation-free.
func TestParallelRunAllocations(t *testing.T) {
	run := func(gens int) float64 {
		return testing.AllocsPerRun(10, func() {
			g, err := NewGrid(32, 32, Torus)
			if err != nil {
				t.Fatal(err)
			}
			g.Randomize(9, 0.3)
			pr := &ParallelRunner{G: g, Threads: 4}
			if _, err := pr.RunCtx(context.Background(), gens); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(1), run(41)
	if perGen := (long - short) / 40; perGen > 0.05 {
		t.Errorf("parallel loop allocates %.2f objects per generation (run(1)=%.1f, run(41)=%.1f), want 0",
			perGen, short, long)
	}
}

// TestStepAllocates pins the zero-allocation property of the serial kernel.
func TestStepAllocates(t *testing.T) {
	g, err := NewGrid(64, 64, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(3, 0.3)
	avg := testing.AllocsPerRun(50, func() { g.Step() })
	if avg != 0 {
		t.Errorf("Step allocates %.1f objects per generation, want 0", avg)
	}
}
