package life

// Differential equivalence for the bit-packed SWAR kernel on the shapes
// that stress the packing itself: widths sitting on, one below, and one
// above the 64-lane word boundary, multi-word rows, and ByCols word tiles,
// each from every edge ring (differential_test.go). Every engine — serial, parallel tiles, distributed bands — must match
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
		{3, 385}, {5, 700},
	}
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
				const gens = 8
				want, wantUpdates := referenceRun(g, gens)
				if got := g.Run(gens); got != wantUpdates {
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
// From 385 columns (7 words) on, the wider tiles hold a vector run where
// the CPU has one; "run-mid-row" starts its run after word 2 and leaves
// a scalar tail before the row's last two words.
func TestStepTileMatchesReference(t *testing.T) {
	const sentinel = 0xa5a5_5a5a_c3c3_3c3c
	for ri, ring := range edgeRings {
		for _, cols := range []int{1, 63, 64, 65, 127, 130, 200, 385, 449, 640, 1000} {
			start, err := NewGrid(7, cols, Torus)
			if err != nil {
				t.Fatal(err)
			}
			start.Randomize(int64(cols)*7+int64(ri), 0.4)
			ring.lay(start)
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
				{"run-mid-row", 1, rows - 1, 2, max(2, wpr-2)},
				{"full", 0, rows, 0, wpr},
			}
			for _, tile := range tiles {
				loRow, hiRow, loW, hiW := tile.loRow, tile.hiRow, tile.loW, tile.hiW
				t.Run(fmt.Sprintf("%s/cols-%d/%s", ring.name, cols, tile.name), func(t *testing.T) {
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
// word boundary (plus multi-word raggeds) from every edge ring at several
// densities, each run on all three engines. These widths exercise
// the last-word mask, the slack-lane invariant, the ghost-column injection
// at lastLane, and the seams between ByCols word tiles. At 449 and 833
// columns full rows hold a vector run before a ragged last word, and at
// 833 two of the three ByCols tiles hold one too.
func TestPackedRaggedWidthsMatchesReference(t *testing.T) {
	for _, ring := range edgeRings {
		for _, cols := range []int{1, 63, 64, 65, 127, 130, 449, 833} {
			for _, density := range []float64{0.1, 0.5, 0.9} {
				ring, cols, density := ring, cols, density
				t.Run(fmt.Sprintf("%s/cols-%d/d%.0f", ring.name, cols, density*10), func(t *testing.T) {
					start, err := NewGrid(9, cols, Torus)
					if err != nil {
						t.Fatal(err)
					}
					start.Randomize(int64(cols)*31+int64(density*10), density)
					ring.lay(start)
					const gens = 6
					want, wantUpdates := referenceRun(start, gens)

					g := start.Clone()
					if got := g.Run(gens); got != wantUpdates {
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
	for _, ring := range edgeRings {
		for _, part := range []Partition{ByRows, ByCols} {
			for _, threads := range []int{1, 2, 8, 16, 33} {
				ring, part, threads := ring, part, threads
				t.Run(fmt.Sprintf("%s/%v/threads-%d", ring.name, part, threads), func(t *testing.T) {
					// 19x130 : three words per row, so ByCols word-block tiling
					// has real interior seams; 33 threads exceeds both extents.
					g, err := NewGrid(19, 130, Torus)
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
					gridsMatch(t, "packed parallel kernel", g, want)
					statsMatch(t, "packed parallel kernel", stats, wantUpdates, gens)
				})
			}
		}
	}
}

// TestPackedDistMatchesReference holds the dist engine to the reference
// across edge rings, rank counts and shapes. The depth of its exchange windows
// varies with them: 8 generations are one window where the bands allow,
// 33 ranks on 37 rows leave bands of 1 row and windows of 1, and 40x2100,
// 33 words a row, is where the width term binds: k = 2, four windows. The
// reference runs once per board.
func TestPackedDistMatchesReference(t *testing.T) {
	shapes := [][2]int{{1, 1}, {7, 65}, {16, 16}, {37, 130}, {40, 2100}}
	const gens = 8
	for _, ring := range edgeRings {
		for _, sh := range shapes {
			start, err := NewGrid(sh[0], sh[1], Torus)
			if err != nil {
				t.Fatal(err)
			}
			start.Randomize(42, 0.35)
			ring.lay(start)
			want, wantUpdates := referenceRun(start, gens)
			for _, ranks := range []int{1, 2, 4, 8, 33} {
				t.Run(fmt.Sprintf("%s/ranks-%d/%dx%d", ring.name, ranks, sh[0], sh[1]), func(t *testing.T) {
					g := start.Clone()
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
// lanes of each row's final word are zero. The rows start all live, which
// presses hardest on the mask: the first slack lane then has three live
// neighbors in the column west of it, a birth unless the mask clears it.
func TestPackedSlackLanesStayZero(t *testing.T) {
	for _, cols := range []int{1, 63, 65, 130} {
		g, err := NewGrid(8, cols, Torus)
		if err != nil {
			t.Fatal(err)
		}
		g.Randomize(9, 1)
		mask := lastWordMask(cols)
		for step := 0; step <= 5; step++ {
			for r := 0; r < g.Rows; r++ {
				if w := g.cells[r*g.wpr+g.wpr-1]; w&^mask != 0 {
					t.Fatalf("cols=%d generation %d row %d: slack lanes set in %#x (mask %#x)", cols, g.Generation, r, w, mask)
				}
			}
			g.Run(1)
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
	c.Run(1)
	if c.Equal(g) {
		t.Error("stepping the clone mutated the original (shared packed buffers?)")
	}
}

// TestPackedStepAllocates pins the kernel at zero allocations on
// multi-word rows: 130 columns run the scalar kernel alone, 700 columns
// (11 words) the vector pass too where the CPU has one.
func TestPackedStepAllocates(t *testing.T) {
	for _, cols := range []int{130, 700} {
		g, err := NewGrid(64, cols, Torus)
		if err != nil {
			t.Fatal(err)
		}
		g.Randomize(3, 0.3)
		if avg := testing.AllocsPerRun(50, func() { g.Run(1) }); avg != 0 {
			t.Errorf("packed Run(1) at 64x%d allocates %.1f objects per generation, want 0", cols, avg)
		}
	}
}

// TestVectorRunMatchesScalar holds the vector pass to the scalar kernel,
// calling both directly. On random rows, vectorRun must write the words
// stepScalar writes for the same run, touch no other word of the output
// row, and return the same count. On random boards and tiles,
// stepPackedSlices, which composes the two, must write the same dst and
// return the same count as stepScalar alone.
func TestVectorRunMatchesScalar(t *testing.T) {
	if !hasVector {
		t.Skip("this CPU has no AVX2: the scalar kernel runs every word")
	}
	const sentinel = 0x5a5a_a5a5_3c3c_c3c3
	rng := rand.New(rand.NewSource(25))
	// randomWord draws a word of density 1/4, 1/2 or 3/4, or all zeros
	// or ones, so runs of births, deaths and steady cells all occur.
	randomWord := func() uint64 {
		a, b := rng.Uint64(), rng.Uint64()
		switch rng.Intn(6) {
		case 0:
			return a & b
		case 1:
			return a | b
		case 2:
			return 0
		case 3:
			return ^uint64(0)
		default:
			return a
		}
	}
	sentinels := func(n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = sentinel
		}
		return s
	}
	for trial := 0; trial < 2000; trial++ {
		wpr := 6 + rng.Intn(20)
		src := make([]uint64, 3*wpr)
		for i := range src {
			src[i] = randomWord()
		}
		w := 1 + rng.Intn(wpr-5)
		n := 4 * (1 + rng.Intn((wpr-1-w)/4))
		got, want := sentinels(3*wpr), sentinels(3*wpr)
		// Row 1 of a three-row board: its up and down rows are rows 0
		// and 2, and words w..w+n-1 never reach a ghost column.
		gotN := vectorRun(src[:wpr], src[wpr:2*wpr], src[2*wpr:], got[wpr:2*wpr], w, n)
		wantN := stepScalar(src, want, 3, wpr*64, wpr, 1, 2, w, w+n)
		if gotN != wantN {
			t.Fatalf("trial %d, %d words, run [%d,%d): vectorRun counted %d, stepScalar %d", trial, wpr, w, w+n, gotN, wantN)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d, %d words, run [%d,%d): word %d of the 3-row board is %#x, stepScalar wrote %#x", trial, wpr, w, w+n, i, got[i], want[i])
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(1200)
		g, err := NewGrid(rows, cols, Torus)
		if err != nil {
			t.Fatal(err)
		}
		g.Randomize(rng.Int63(), rng.Float64())
		wpr := g.wpr
		loRow, loW := rng.Intn(rows), rng.Intn(wpr)
		hiRow, hiW := loRow+1+rng.Intn(rows-loRow), loW+1+rng.Intn(wpr-loW)
		got, want := sentinels(len(g.cells)), sentinels(len(g.cells))
		gotN := stepPackedSlices(g.cells, got, rows, cols, wpr, loRow, hiRow, loW, hiW)
		wantN := stepScalar(g.cells, want, rows, cols, wpr, loRow, hiRow, loW, hiW)
		label := fmt.Sprintf("%dx%d tile rows [%d,%d) words [%d,%d)", rows, cols, loRow, hiRow, loW, hiW)
		if gotN != wantN {
			t.Fatalf("%s: stepPackedSlices counted %d, stepScalar %d", label, gotN, wantN)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: word %d is %#x, stepScalar wrote %#x", label, i, got[i], want[i])
			}
		}
	}
}

// FuzzPackedLife holds every engine bit-for-bit to the per-cell reference
// loop — boards and live updates — across fuzzer-chosen shapes, densities, worker
// counts and generation counts (1-12), so the dist engine runs several
// exchange windows of every depth its rule allows. Widths reach 896
// columns (14 words), where rows have vector runs; past 140 columns the
// row count shrinks with the width, so one input stays near 48x140 cells.
// Seed #1 is 2x66 on dist/4 (two 1-row bands), where an off-by-one in the
// owned edge rows a rank sends shows. Seed #4 is 20 rows on 4 ranks for 12
// generations: windows of 5+5+2. Seed #5 is 8x800 (13 words) on 2 ByCols
// workers, so each tile holds a vector run and a scalar tail.
func FuzzPackedLife(f *testing.F) {
	f.Add(uint8(3), uint16(3), int64(1), uint8(128), uint8(2), uint8(2))
	f.Add(uint8(1), uint16(65), int64(42), uint8(64), uint8(3), uint8(2))
	f.Add(uint8(9), uint16(127), int64(7), uint8(200), uint8(8), uint8(2))
	f.Add(uint8(16), uint16(64), int64(99), uint8(25), uint8(5), uint8(2))
	f.Add(uint8(19), uint16(69), int64(23), uint8(90), uint8(3), uint8(11))
	f.Add(uint8(40), uint16(799), int64(5), uint8(90), uint8(9), uint8(5))
	f.Fuzz(func(t *testing.T, rowsB uint8, colsB uint16, seed int64, densityB, workersB, gensB uint8) {
		cols := int(colsB)%896 + 1
		rows := int(rowsB)%48*140/max(cols, 140) + 1
		density := float64(densityB) / 255
		workers := int(workersB)%8 + 1
		part := Partition(int(workersB) / 8 % 2)
		gens := int(gensB)%12 + 1
		start, err := NewGrid(rows, cols, Torus)
		if err != nil {
			t.Fatal(err)
		}
		start.Randomize(seed, density)
		want, wantUpdates := referenceRun(start, gens)
		label := fmt.Sprintf("%dx%d", rows, cols)

		g := start.Clone()
		if got := g.Run(gens); got != wantUpdates || !g.Equal(want) {
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
