package life

// Differential equivalence for the bit-packed SWAR kernel on the shapes
// that stress the packing itself: widths sitting on, one below, and one
// above the 64-lane word boundary, multi-word rows, and ByCols word tiles.
// Every engine — serial, parallel tiles, distributed bands — must match
// the per-cell reference loop, boards AND live-update statistics.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func TestPackedStepMatchesReference(t *testing.T) {
	shapes := [][2]int{
		{1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 5}, {5, 2}, {3, 3}, {16, 16},
		{13, 31}, {64, 17}, {5, 63}, {5, 64}, {5, 65}, {4, 127}, {3, 130},
	}
	for _, mode := range allModes {
		for _, sh := range shapes {
			mode, rows, cols := mode, sh[0], sh[1]
			t.Run(fmt.Sprintf("%v/%dx%d", mode, rows, cols), func(t *testing.T) {
				g, err := NewGrid(rows, cols, mode)
				if err != nil {
					t.Fatal(err)
				}
				g.Randomize(42, 0.35)
				const gens = 8
				want, wantUpdates := referenceRun(g, gens)
				if got := g.RunCounted(gens); got != wantUpdates {
					t.Errorf("packed live updates %d, reference counted %d", got, wantUpdates)
				}
				gridsMatch(t, "packed serial kernel", g, want)
			})
		}
	}
}

// TestStepTileMatchesReference holds one kernel call on one tile to the
// reference generation, the tile contract ByCols tiles and the sharded
// LiveUpdates rely on: the tile's words equal stepReference's next board,
// every word outside the tile keeps its sentinel, and the return value is
// the reference's count of changed cells inside the tile. The tiles start
// and end on both row edges and at interior words, so each one exercises
// the west carry-in from the word left of it or the west ghost column,
// and the east carry from the word right of it or the east ghost column.
func TestStepTileMatchesReference(t *testing.T) {
	const sentinel = 0xa5a5_5a5a_c3c3_3c3c
	for _, mode := range allModes {
		for _, cols := range []int{1, 63, 64, 65, 127, 130, 200} {
			start, err := NewGrid(7, cols, mode)
			if err != nil {
				t.Fatal(err)
			}
			start.Randomize(int64(cols)*7+int64(mode), 0.4)
			ref := start.Clone()
			ref.stepReference()
			rows, wpr := start.Rows, start.wpr
			tiles := []struct {
				name                   string
				loRow, hiRow, loW, hiW int
			}{
				{"empty-rows", 3, 3, 0, wpr},
				{"empty-words", 0, rows, wpr, wpr},
				{"single-word", 3, 4, wpr / 2, wpr/2 + 1},
				{"first-word", 0, rows, 0, 1},
				{"last-word", 0, rows, wpr - 1, wpr},
				{"interior", 1, rows - 1, 1, max(1, wpr-1)},
				{"to-row-end", 2, rows, wpr / 2, wpr},
				{"full", 0, rows, 0, wpr},
			}
			for _, tile := range tiles {
				loRow, hiRow, loW, hiW := tile.loRow, tile.hiRow, tile.loW, tile.hiW
				t.Run(fmt.Sprintf("%v/cols-%d/%s", mode, cols, tile.name), func(t *testing.T) {
					g := start.Clone()
					for i := range g.next {
						g.next[i] = sentinel
					}
					got := g.stepPackedBlock(loRow, hiRow, loW, hiW)
					var want int64
					for r := loRow; r < hiRow; r++ {
						for c := loW * 64; c < min(hiW*64, cols); c++ {
							if ref.Alive(r, c) != start.Alive(r, c) {
								want++
							}
						}
					}
					if got != want {
						t.Errorf("returned %d changed cells, reference changed %d inside the tile", got, want)
					}
					for r := 0; r < rows; r++ {
						for w := 0; w < wpr; w++ {
							i := r*wpr + w
							inside := r >= loRow && r < hiRow && w >= loW && w < hiW
							switch {
							case inside && g.next[i] != ref.cells[i]:
								t.Errorf("row %d word %d: %#x, reference %#x", r, w, g.next[i], ref.cells[i])
							case !inside && g.next[i] != sentinel:
								t.Errorf("row %d word %d outside the tile was written: %#x", r, w, g.next[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestPackedRaggedWidthsMatchesReference is the ragged-width property
// sweep: widths sitting exactly on, one below, and one above the 64-lane
// word boundary (plus multi-word raggeds) across every edge mode and
// several densities, each run on all three engines. These widths exercise
// the last-word mask, the slack-lane invariant, the ghost-column injection
// at lastLane, and the seams between ByCols word tiles.
func TestPackedRaggedWidthsMatchesReference(t *testing.T) {
	for _, mode := range allModes {
		for _, cols := range []int{1, 63, 64, 65, 127, 130} {
			for _, density := range []float64{0.1, 0.5, 0.9} {
				mode, cols, density := mode, cols, density
				t.Run(fmt.Sprintf("%v/cols-%d/d%.0f", mode, cols, density*10), func(t *testing.T) {
					start, err := NewGrid(9, cols, mode)
					if err != nil {
						t.Fatal(err)
					}
					start.Randomize(int64(cols)*31+int64(density*10), density)
					const gens = 6
					want, wantUpdates := referenceRun(start, gens)

					g := start.Clone()
					if got := g.RunCounted(gens); got != wantUpdates {
						t.Errorf("serial: live updates %d, reference counted %d", got, wantUpdates)
					}
					gridsMatch(t, "serial", g, want)

					g = start.Clone()
					stats, err := (&ParallelRunner{G: g, Threads: 3, partition: ByCols}).RunCtx(context.Background(), gens)
					if err != nil {
						t.Fatal(err)
					}
					gridsMatch(t, "parallel by word columns", g, want)
					statsMatch(t, "parallel by word columns", stats, wantUpdates, gens)

					g = start.Clone()
					stats, err = (&DistRunner{G: g, Ranks: 3}).RunCtx(context.Background(), gens)
					if err != nil {
						t.Fatal(err)
					}
					gridsMatch(t, "dist", g, want)
					statsMatch(t, "dist", stats, wantUpdates, gens)
				})
			}
		}
	}
}

func TestPackedParallelMatchesReference(t *testing.T) {
	for _, mode := range allModes {
		for _, part := range []Partition{ByRows, ByCols} {
			for _, threads := range []int{1, 2, 8, 16, 33} {
				mode, part, threads := mode, part, threads
				t.Run(fmt.Sprintf("%v/%v/threads-%d", mode, part, threads), func(t *testing.T) {
					// 19x130 : three words per row, so ByCols word-block tiling
					// has real interior seams; 33 threads exceeds both extents.
					g, err := NewGrid(19, 130, mode)
					if err != nil {
						t.Fatal(err)
					}
					g.Randomize(7, 0.3)
					const gens = 6
					want, wantUpdates := referenceRun(g, gens)
					pr := &ParallelRunner{G: g, Threads: threads, partition: part}
					stats, err := pr.RunCtx(context.Background(), gens)
					if err != nil {
						t.Fatal(err)
					}
					gridsMatch(t, "packed parallel kernel", g, want)
					statsMatch(t, "packed parallel kernel", stats, wantUpdates, gens)
				})
			}
		}
	}
}

func TestPackedDistMatchesReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {7, 65}, {16, 16}, {37, 130}}
	for _, mode := range allModes {
		for _, ranks := range []int{1, 2, 8, 33} {
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
					gridsMatch(t, "packed distributed kernel", g, want)
					statsMatch(t, "packed distributed kernel", stats, wantUpdates, gens)
				})
			}
		}
	}
}

// TestPackedDistHaloBytes pins the headline comm win: a packed halo row at
// cols=4096 is 64 words = 512 bytes on the wire — 8x under one byte per
// cell. The world's traffic counters must account for exactly the packed
// protocol (halos + block distribution/collection + the 8-byte allreduce
// payloads).
func TestPackedDistHaloBytes(t *testing.T) {
	const rows, cols, ranks, gens = 16, 4096, 4, 3
	g, err := NewGrid(rows, cols, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(5, 0.3)
	dr := &DistRunner{G: g, Ranks: ranks}
	if _, err := dr.RunCtx(context.Background(), gens); err != nil {
		t.Fatal(err)
	}
	const rowBytes = (cols / 64) * 8 // 512: one packed halo row on the wire
	if rowBytes != 512 {
		t.Fatalf("packed halo row = %d bytes at cols=%d, want 512", rowBytes, cols)
	}
	haloBytes := int64(ranks * 2 * gens * rowBytes)
	blockBytes := int64(2 * (ranks - 1) * (rows / ranks) * rowBytes)
	wantMin := haloBytes + blockBytes
	ws := dr.CommStats
	if ws.BytesSent < wantMin {
		t.Errorf("world sent %d bytes, want >= %d", ws.BytesSent, wantMin)
	}
	if ws.BytesSent > wantMin+int64(ranks*64) {
		t.Errorf("world sent %d bytes, want close to %d (allreduce overhead only)", ws.BytesSent, wantMin)
	}
}

// TestPackRoundTrip: cells written through Set read back through Alive,
// Bools, and String, and Population counts them, at widths on and around
// the word boundary.
func TestPackRoundTrip(t *testing.T) {
	for _, cols := range []int{1, 63, 64, 65, 130} {
		cols := cols
		t.Run(fmt.Sprintf("cols-%d", cols), func(t *testing.T) {
			g, err := NewGrid(11, cols, Torus)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(cols)))
			want := make([][]bool, g.Rows)
			pop := 0
			for r := range want {
				want[r] = make([]bool, cols)
				for c := range want[r] {
					want[r][c] = rng.Intn(2) == 1
					if want[r][c] {
						pop++
					}
					if err := g.Set(r, c, want[r][c]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if g.Population() != pop {
				t.Errorf("Population = %d, set %d live cells", g.Population(), pop)
			}
			got := g.Bools()
			rendered := g.String()
			for r := range want {
				for c := range want[r] {
					if g.Alive(r, c) != want[r][c] || got[r][c] != want[r][c] {
						t.Fatalf("cell (%d,%d): Alive %v, Bools %v, set %v", r, c, g.Alive(r, c), got[r][c], want[r][c])
					}
					if live := rendered[r*(cols+1)+c] == '@'; live != want[r][c] {
						t.Fatalf("cell (%d,%d): String renders live=%v, set %v", r, c, live, want[r][c])
					}
				}
			}
			// Clearing the last column must not disturb its word neighbors.
			g.Set(0, cols-1, false)
			if g.Alive(0, cols-1) || (cols > 1 && g.Alive(0, cols-2) != want[0][cols-2]) {
				t.Error("Set on the last column disturbed the row")
			}
		})
	}
}

// TestPackedSlackLanesStayZero guards the representation invariant every
// shifted gather relies on: after Randomize and after stepping, the slack
// lanes of each row's final word are zero.
func TestPackedSlackLanesStayZero(t *testing.T) {
	for _, cols := range []int{1, 63, 65, 130} {
		g, err := NewGrid(8, cols, AliveEdges) // alive ghosts press hardest on the mask
		if err != nil {
			t.Fatal(err)
		}
		g.Randomize(9, 0.5)
		mask := lastWordMask(cols)
		for step := 0; step <= 5; step++ {
			for r := 0; r < g.Rows; r++ {
				if w := g.cells[r*g.wpr+g.wpr-1]; w&^mask != 0 {
					t.Fatalf("cols=%d generation %d row %d: slack lanes set in %#x (mask %#x)", cols, g.Generation, r, w, mask)
				}
			}
			g.Step()
		}
	}
}

// TestPackedClonePreservesRepresentation: a clone holds the same words and
// is independent of the original.
func TestPackedClonePreservesRepresentation(t *testing.T) {
	g, err := NewGrid(9, 70, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(21, 0.4)
	c := g.Clone()
	gridsMatch(t, "packed clone", c, g)
	c.Step()
	if c.Equal(g) {
		t.Error("stepping the clone mutated the original (shared packed buffers?)")
	}
}

// TestPackedStepAllocates pins the SWAR kernel's hot loop at zero
// allocations on multi-word rows.
func TestPackedStepAllocates(t *testing.T) {
	g, err := NewGrid(64, 130, Torus)
	if err != nil {
		t.Fatal(err)
	}
	g.Randomize(3, 0.3)
	if avg := testing.AllocsPerRun(50, func() { g.Step() }); avg != 0 {
		t.Errorf("packed Step allocates %.1f objects per generation, want 0", avg)
	}
}

// FuzzPackedLife holds every engine bit-for-bit to the per-cell reference
// loop — boards and live updates — across fuzzer-chosen shapes, modes,
// densities, and worker counts.
func FuzzPackedLife(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(0), int64(1), uint8(128), uint8(2))
	f.Add(uint8(1), uint8(65), uint8(1), int64(42), uint8(64), uint8(3))
	f.Add(uint8(9), uint8(127), uint8(2), int64(7), uint8(200), uint8(8))
	f.Add(uint8(16), uint8(64), uint8(3), int64(99), uint8(25), uint8(5))
	f.Fuzz(func(t *testing.T, rowsB, colsB, modeB uint8, seed int64, densityB, workersB uint8) {
		rows := int(rowsB)%48 + 1
		cols := int(colsB)%140 + 1
		mode := EdgeMode(int(modeB) % 4)
		density := float64(densityB) / 255
		workers := int(workersB)%8 + 1
		part := Partition(int(workersB) / 8 % 2)
		start, err := NewGrid(rows, cols, mode)
		if err != nil {
			t.Fatal(err)
		}
		start.Randomize(seed, density)
		const gens = 3
		want, wantUpdates := referenceRun(start, gens)
		label := fmt.Sprintf("%dx%d %v", rows, cols, mode)

		g := start.Clone()
		if got := g.RunCounted(gens); got != wantUpdates || !g.Equal(want) {
			t.Errorf("%s serial: live updates %d (reference %d), boards equal %v", label, got, wantUpdates, g.Equal(want))
		}
		g = start.Clone()
		stats, err := (&ParallelRunner{G: g, Threads: workers, partition: part}).RunCtx(context.Background(), gens)
		if err != nil {
			t.Fatal(err)
		}
		if stats.LiveUpdates != wantUpdates || !g.Equal(want) {
			t.Errorf("%s parallel %v/%d: live updates %d (reference %d), boards equal %v", label, part, workers, stats.LiveUpdates, wantUpdates, g.Equal(want))
		}
		g = start.Clone()
		stats, err = (&DistRunner{G: g, Ranks: workers}).RunCtx(context.Background(), gens)
		if err != nil {
			t.Fatal(err)
		}
		if stats.LiveUpdates != wantUpdates || !g.Equal(want) {
			t.Errorf("%s dist/%d: live updates %d (reference %d), boards equal %v", label, workers, stats.LiveUpdates, wantUpdates, g.Equal(want))
		}
	})
}
