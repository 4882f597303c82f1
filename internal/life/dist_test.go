package life

// Differential equivalence for the distributed runner: row-block sharding
// plus halo exchange must be bit-for-bit the per-cell reference loop —
// boards AND live-update statistics — for every edge mode, shape, and rank
// count, including the surplus-ranks > rows class (the surplus-thread bug
// class, re-tested here on the message-passing path).

import (
	"context"
	"fmt"
	"testing"
)

func TestDistMatchesReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 5}, {5, 2}, {3, 3}, {16, 16}, {13, 31}, {64, 17}}
	for _, mode := range allModes {
		for _, ranks := range []int{1, 2, 8, 16} {
			for _, sh := range shapes {
				mode, ranks, rows, cols := mode, ranks, sh[0], sh[1]
				t.Run(fmt.Sprintf("%v/ranks-%d/%dx%d", mode, ranks, rows, cols), func(t *testing.T) {
					g, err := NewGrid(rows, cols, mode)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(42, 0.35)
					const gens = 8
					want, wantUpdates := referenceRun(g, gens)

					dr := &DistRunner{G: g, Ranks: ranks}
					stats, err := dr.RunCtx(context.Background(), gens)
					if err != nil {
						t.Fatal(err)
					}
					gridsMatch(t, "distributed vs reference", g, want)
					statsMatch(t, "distributed vs reference", stats, wantUpdates, gens)
				})
			}
		}
	}
}

// TestDistMatchesParallelRunner cross-checks the two scale-out engines
// against each other: same board, same generations — shared-memory threads
// and message-passing ranks must land on identical grids and statistics.
func TestDistMatchesParallelRunner(t *testing.T) {
	for _, mode := range allModes {
		for _, workers := range []int{2, 3, 8} {
			mode, workers := mode, workers
			t.Run(fmt.Sprintf("%v/workers-%d", mode, workers), func(t *testing.T) {
				mk := func() *Grid {
					g, err := NewGrid(29, 23, mode)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(7, 0.3)
					return g
				}
				const gens = 6
				pg := mk()
				pr := &ParallelRunner{G: pg, Threads: workers}
				pstats, err := pr.RunCtx(context.Background(), gens)
				if err != nil {
					t.Fatal(err)
				}
				dg := mk()
				dr := &DistRunner{G: dg, Ranks: workers}
				dstats, err := dr.RunCtx(context.Background(), gens)
				if err != nil {
					t.Fatal(err)
				}
				gridsMatch(t, "distributed vs parallel", dg, pg)
				if dstats.LiveUpdates != pstats.LiveUpdates {
					t.Errorf("live updates: dist %d, parallel %d", dstats.LiveUpdates, pstats.LiveUpdates)
				}
			})
		}
	}
}

// TestDistSurplusRanks: more ranks than rows must clamp to the row extent
// (the surplus-worker regression class) and still be bit-for-bit. The
// clamp is reported in RunStats.Workers; the runner's Ranks stays as set.
func TestDistSurplusRanks(t *testing.T) {
	for _, mode := range allModes {
		for _, sh := range [][2]int{{1, 9}, {3, 5}, {5, 33}} {
			mode, rows, cols := mode, sh[0], sh[1]
			t.Run(fmt.Sprintf("%v/%dx%d/ranks-33", mode, rows, cols), func(t *testing.T) {
				g, err := NewGrid(rows, cols, mode)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(99, 0.4)
				const gens = 5
				want, wantUpdates := referenceRun(g, gens)

				dr := &DistRunner{G: g, Ranks: 33}
				stats, err := dr.RunCtx(context.Background(), gens)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Workers != rows || dr.Ranks != 33 {
					t.Errorf("Workers = %d, Ranks = %d; want %d workers and Ranks left at 33", stats.Workers, dr.Ranks, rows)
				}
				gridsMatch(t, "surplus ranks", g, want)
				statsMatch(t, "surplus ranks", stats, wantUpdates, gens)
			})
		}
	}
}

// TestDistCommStats sanity-checks the exposed traffic counters: a 4-rank
// torus run must move exactly 2 halo rows per rank per generation plus the
// distribution/collection blocks and the stats Allreduce. A 10-column row
// is one 8-byte word on the wire.
func TestDistCommStats(t *testing.T) {
	g, err := NewGrid(16, 10, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(5, 0.3)
	const gens, ranks = 3, 4
	dr := &DistRunner{G: g, Ranks: ranks}
	if _, err := dr.RunCtx(context.Background(), gens); err != nil {
		t.Fatal(err)
	}
	ws := dr.CommStats
	if len(ws.PerRank) != ranks {
		t.Fatalf("stats for %d ranks, want %d", len(ws.PerRank), ranks)
	}
	// Halo traffic: ranks * 2 rows * gens * rowBytes. Block traffic:
	// 2*(ranks-1) messages of 4 rows. Allreduce adds messages but only
	// 8-byte payloads.
	const rowBytes = 8
	haloBytes := int64(ranks * 2 * gens * rowBytes)
	blockBytes := int64(2 * (ranks - 1) * 4 * rowBytes)
	wantMin := haloBytes + blockBytes
	if ws.BytesSent < wantMin {
		t.Errorf("world sent %d bytes, want >= %d", ws.BytesSent, wantMin)
	}
	if ws.BytesSent > wantMin+int64(ranks*64) {
		t.Errorf("world sent %d bytes, want close to %d (allreduce overhead only)", ws.BytesSent, wantMin)
	}
	for _, s := range ws.PerRank {
		if s.Collectives != 1 {
			t.Errorf("rank %d collectives %d, want 1 (the stats allreduce)", s.Rank, s.Collectives)
		}
	}
}

// TestDistValidation: bad configurations fail fast.
func TestDistValidation(t *testing.T) {
	g, err := NewGrid(4, 4, Torus)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{0, -1} {
		if _, err := (&DistRunner{G: g, Ranks: ranks}).RunCtx(context.Background(), 1); err == nil {
			t.Errorf("%d ranks accepted", ranks)
		}
	}
}

// TestDistZeroGenerations: n = 0 is the identity, not corruption.
func TestDistZeroGenerations(t *testing.T) {
	g, err := NewGrid(6, 6, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(11, 0.5)
	want := g.Clone()
	dr := &DistRunner{G: g, Ranks: 3}
	stats, err := dr.RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Error("zero-generation run mutated the board")
	}
	if stats.LiveUpdates != 0 || g.Generation != 0 {
		t.Errorf("stats %+v generation %d after zero generations", stats, g.Generation)
	}
}
