package life

// Differential equivalence for the distributed runner: row-block sharding
// plus halo exchange must be bit-for-bit the per-cell reference loop —
// boards AND live-update statistics — for every edge ring, shape, and
// rank count, including the surplus-ranks > rows class (the surplus-thread bug class,
// re-tested here on the message-passing path).

import (
	"context"
	"fmt"
	"testing"
)

func TestDistMatchesReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 5}, {5, 2}, {3, 3}, {16, 16}, {13, 31}, {64, 17}}
	for _, ring := range edgeRings {
		for _, ranks := range []int{1, 2, 8, 16} {
			for _, sh := range shapes {
				ring, ranks, rows, cols := ring, ranks, sh[0], sh[1]
				t.Run(fmt.Sprintf("%s/ranks-%d/%dx%d", ring.name, ranks, rows, cols), func(t *testing.T) {
					g, err := NewGrid(rows, cols, Torus)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(42, 0.35)
					ring.lay(g)
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
	for _, ring := range edgeRings {
		for _, workers := range []int{2, 3, 8} {
			ring, workers := ring, workers
			t.Run(fmt.Sprintf("%s/workers-%d", ring.name, workers), func(t *testing.T) {
				mk := func() *Grid {
					g, err := NewGrid(29, 23, Torus)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(7, 0.3)
					ring.lay(g)
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
	for _, ring := range edgeRings {
		for _, sh := range [][2]int{{1, 9}, {3, 5}, {5, 33}} {
			ring, rows, cols := ring, sh[0], sh[1]
			t.Run(fmt.Sprintf("%s/%dx%d/ranks-33", ring.name, rows, cols), func(t *testing.T) {
				g, err := NewGrid(rows, cols, Torus)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(99, 0.4)
				ring.lay(g)
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

// TestDistCommStats pins the protocol's traffic exactly on 4-rank tori
// whose ranks divide the rows (4 rows each). The Scatter and the Gather
// each move P-1 blocks, every rank sends 2 halo blocks per window, and the
// Allreduce's reduce and broadcast phases each send P-1 8-byte counts.
// Windows carry k rows each and sum to the generations, so the halo bytes
// are 2 rows per rank and generation whatever the windows. The windows
// are written out, not derived, so a change to the depth rule shows here:
// 3 generations fit one window of 4-row bands; 10 need three (4+4+2); and
// at 2100 columns, 33 words a row, the width term holds k to 2. Every rank
// enters 3 collectives: Scatter, Allreduce and Gather.
func TestDistCommStats(t *testing.T) {
	const rows, ranks = 16, 4
	cases := []struct{ cols, gens, windows int }{
		{cols: 10, gens: 3, windows: 1}, // 20 messages, 432 bytes
		{cols: 10, gens: 10, windows: 3},
		{cols: 2100, gens: 3, windows: 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dx%d/gens-%d", rows, tc.cols, tc.gens), func(t *testing.T) {
			g, err := NewGrid(rows, tc.cols, Torus)
			if err != nil {
				t.Fatal(err)
			}
			g.Randomize(5, 0.3)
			dr := &DistRunner{G: g, Ranks: ranks}
			if _, err := dr.RunCtx(context.Background(), tc.gens); err != nil {
				t.Fatal(err)
			}
			ws := dr.CommStats
			if len(ws.PerRank) != ranks {
				t.Fatalf("stats for %d ranks, want %d", len(ws.PerRank), ranks)
			}
			rowBytes := int64(wordsPerRow(tc.cols) * 8)
			const bandRows = rows / ranks
			wantSends := int64(2*(ranks-1) + 2*ranks*tc.windows + 2*(ranks-1))
			blockBytes := 2 * (ranks - 1) * bandRows * rowBytes
			haloBytes := int64(2*ranks*tc.gens) * rowBytes
			wantBytes := blockBytes + haloBytes + 16*(ranks-1)
			if ws.Sends != wantSends || ws.BytesSent != wantBytes {
				t.Errorf("world sent %d messages and %d bytes, want %d and %d", ws.Sends, ws.BytesSent, wantSends, wantBytes)
			}
			for _, s := range ws.PerRank {
				if s.Collectives != 3 {
					t.Errorf("rank %d collectives %d, want 3 (scatter, allreduce, gather)", s.Rank, s.Collectives)
				}
			}
		})
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
