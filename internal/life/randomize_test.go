package life

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomizeReference is the per-cell loop Randomize is held to: one
// rng.Float64 per cell in row-major order, live iff below density. Over
// rand.NewSource(seed) it draws the board seed names.
func randomizeReference(g *Grid, src rand.Source, density float64) {
	rng := rand.New(src)
	for i := range g.cells {
		g.cells[i] = 0
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if rng.Float64() < density {
				g.cells[r*g.wpr+c>>6] |= uint64(1) << (uint(c) & 63)
			}
		}
	}
}

// dirty sets every lane of every word, slack lanes included, so a word
// that seeding skips or only partly writes shows up against the oracle.
func dirty(g *Grid) {
	for i := range g.cells {
		g.cells[i] = ^uint64(0)
	}
}

// checkSeeded compares a seeded board with the oracle's and checks that
// its slack lanes are zero.
func checkSeeded(t *testing.T, label string, got, want *Grid) {
	t.Helper()
	mask := lastWordMask(got.Cols)
	for r := 0; r < got.Rows; r++ {
		if w := got.cells[r*got.wpr+got.wpr-1]; w&^mask != 0 {
			t.Fatalf("%s: row %d slack lanes set in %#x (mask %#x)", label, r, w, mask)
		}
	}
	if !got.Equal(want) {
		for i := range got.cells {
			if got.cells[i] != want.cells[i] {
				t.Fatalf("%s: first difference in word %d (row %d): got %#x, want %#x",
					label, i, i/got.wpr, got.cells[i], want.cells[i])
			}
		}
	}
}

// seedingDensities are the densities the seeding tests sweep: the classroom
// default, both ends, values past both ends, NaN, the smallest positive
// density, the largest below 1, and ones whose threshold sits below 2^53,
// where float64(x) is still exact.
var seedingDensities = []float64{
	0.3, 0.5, 0, 1, math.NaN(), -0.1, 1.5, 5e-324, math.Nextafter(1, 0),
	1e-9, 0.999, 1.0 / 3, math.Inf(1), math.Inf(-1),
}

// TestRandomizeMatchesReference holds Randomize to the per-cell loop across
// seeds (including 0, negatives and ones math/rand reduces mod 2^31-1),
// every seeding density and shapes from one cell to boards that span many
// refills, with widths on both sides of a word boundary.
func TestRandomizeMatchesReference(t *testing.T) {
	seeds := []int64{0, 1, 2, 7, 31, 42, -1, -31, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt64, math.MinInt64}
	shapes := [][2]int{{1, 1}, {1, 606}, {1, 607}, {1, 608}, {3, 63}, {5, 64}, {7, 65}, {9, 130}, {64, 128}, {4, 1000}}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		got, err := NewGrid(rows, cols, Torus)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewGrid(rows, cols, Torus)
		for _, seed := range seeds {
			for _, d := range seedingDensities {
				dirty(got)
				got.Randomize(seed, d)
				randomizeReference(want, rand.NewSource(seed), d)
				checkSeeded(t, fmt.Sprintf("%dx%d seed %d density %v", rows, cols, seed, d), got, want)
			}
		}
	}
}

// FuzzRandomize holds Randomize to the per-cell loop over fuzzer-chosen
// seeds, densities and shapes. Boards are capped at 64x1024 so one exec
// stays in the milliseconds.
func FuzzRandomize(f *testing.F) {
	// Seed 0 (math/rand maps it to 89482311), negative seeds, and seeds
	// at and past 2^31-1, which math/rand reduces mod 2^31-1.
	for _, seed := range []int64{0, 1, 31, -1, math.MinInt64, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt64} {
		f.Add(seed, 0.3, uint16(8), uint16(130))
	}
	for _, d := range []float64{0, 1, math.NaN(), -0.1, 1.5, 5e-324, math.Nextafter(1, 0), 0.5} {
		f.Add(int64(7), d, uint16(5), uint16(65))
	}
	for _, cols := range []uint16{1, 63, 64, 65, 130, 1000} {
		f.Add(int64(42), 0.35, uint16(3), cols)
	}
	f.Fuzz(func(t *testing.T, seed int64, density float64, rowsU, colsU uint16) {
		rows, cols := fold(rowsU, 64), fold(colsU, 1024)
		got, err := NewGrid(rows, cols, Torus)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewGrid(rows, cols, Torus)
		dirty(got)
		got.Randomize(seed, density)
		randomizeReference(want, rand.NewSource(seed), density)
		checkSeeded(t, fmt.Sprintf("%dx%d seed %d density %v", rows, cols, seed, density), got, want)
	})
}

// fold maps v onto [1, max], leaving 1..max unchanged.
func fold(v uint16, max int) int {
	return (int(v)+max-1)%max + 1
}

// scriptedSource is a rand.Source whose first lfgLen draws are script
// (zero-padded) and whose later draws continue math/rand's recurrence
// x[n] = x[n-607] + x[n-273] (mod 2^63), as a real Source's do. It lets a
// test plant draws no real seed reaches.
type scriptedSource struct {
	draws []uint64
	i     int
}

func newScriptedSource(script []uint64) *scriptedSource {
	draws := make([]uint64, 4*lfgLen)
	copy(draws, script)
	for n := lfgLen; n < len(draws); n++ {
		draws[n] = (draws[n-lfgLen] + draws[n-lfgTap]) & int63Mask
	}
	return &scriptedSource{draws: draws}
}

func (s *scriptedSource) Int63() int64 {
	s.i++
	return int64(s.draws[s.i-1])
}

func (s *scriptedSource) Seed(int64) { panic("scriptedSource: Seed") }

// plant sets script so that stream draw n (0-based) is x. Draws past the
// script come from the recurrence; one in [lfgLen, lfgLen+lfgTap) is fixed
// by adjusting script[n-lfgLen].
func plant(script []uint64, n int, x uint64) {
	if n < lfgLen {
		script[n] = x
		return
	}
	script[n-lfgLen] = (x - script[n-lfgTap]) & int63Mask
}

// TestRandomizeRedraw drives the word builder with draws at and around
// redrawMin, which math/rand's Float64 redraws because their quotient
// rounds to 1.0. No real seed reaches one (p ≈ 5.6e-17 per draw), so a
// scripted source plants them: in the first word, mid-board, in a word
// that straddles a refill, right after a refill, and back to back.
func TestRandomizeRedraw(t *testing.T) {
	// The scripted source is faithful: given a real Source's first lfgLen
	// draws, it continues that Source's stream.
	real := rand.NewSource(11)
	script := make([]uint64, lfgLen)
	for i := range script {
		script[i] = uint64(real.Int63())
	}
	scripted := newScriptedSource(script)
	for n := lfgLen; n < len(scripted.draws); n++ {
		if got, want := int64(scripted.draws[n]), real.Int63(); got != want {
			t.Fatalf("draw %d: scripted %d, math/rand %d", n, got, want)
		}
	}

	const d = 0.3
	th := liveThreshold(d)
	near := []uint64{redrawMin - 2, redrawMin - 1, redrawMin, redrawMin + 1, int63Mask, th - 1, th, th + 1, 0}
	// The first four boards stay under lfgLen cells, so every draw is a
	// scripted one; the last two run past the first refill.
	shapes := [][2]int{{1, 1}, {1, 64}, {3, 65}, {7, 80}, {9, 130}, {11, 100}}
	type plan struct {
		label string
		at    []int // stream positions to plant redrawMin at
	}
	plans := []plan{
		{"sprinkled-only", nil},
		{"first-draw", []int{0}},
		{"mid-word", []int{5}},
		{"last-lane", []int{63}},
		{"back-to-back", []int{10, 11, 12}},
		{"second-word", []int{64, 100}},
		{"near-end", []int{600, 606}},
		{"after-refill", []int{lfgLen, lfgLen + 1}},
		{"straddle", []int{lfgLen - 3, lfgLen + 2}},
	}
	rng := rand.New(rand.NewSource(5))
	for _, p := range plans {
		script := make([]uint64, lfgLen)
		for i := range script {
			// Mostly ordinary draws, with every value near the two
			// boundaries sprinkled in.
			if i%7 == 3 {
				script[i] = near[i%len(near)]
			} else {
				script[i] = uint64(rng.Int63())
			}
		}
		for _, n := range p.at {
			plant(script, n, redrawMin)
		}
		for _, sh := range shapes {
			got, _ := NewGrid(sh[0], sh[1], Torus)
			want, _ := NewGrid(sh[0], sh[1], Torus)
			for _, dens := range []float64{d, 0.999, 1} {
				dirty(got)
				got.randomizeFrom(newScriptedSource(script), dens)
				randomizeReference(want, newScriptedSource(script), dens)
				checkSeeded(t, fmt.Sprintf("%s %dx%d density %v", p.label, sh[0], sh[1], dens), got, want)
			}
		}
	}
}

// TestLiveThreshold checks the integer threshold against Float64's own
// comparison on both sides of it: x < t iff float64(x)/2^63 < d, for x in
// t-2..t+2. The densities include ones whose threshold sits above 2^53,
// where float64(x) rounds, and 0.5, whose threshold is 2^62-256 rather
// than 2^62 because 2^62-256 already rounds up to 2^62.
func TestLiveThreshold(t *testing.T) {
	ds := append([]float64(nil), seedingDensities...)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		ds = append(ds, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(70)))
	}
	if th := liveThreshold(0.5); th != 1<<62-256 {
		t.Errorf("liveThreshold(0.5) = %d, want 2^62-256", th)
	}
	for _, d := range ds {
		th := liveThreshold(d)
		if th > 1<<63 {
			t.Fatalf("liveThreshold(%v) = %d, past 2^63", d, th)
		}
		for x := th - 2; x != th+3; x++ {
			if x > int63Mask {
				continue // not a 63-bit draw
			}
			if live := float64(x)/(1<<63) < d; (x < th) != live {
				t.Errorf("density %v threshold %d: draw %d live by Float64 %v, by threshold %v", d, th, x, live, x < th)
			}
		}
	}
}
