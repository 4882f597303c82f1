package life

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBlinkerOscillates(t *testing.T) {
	cfg := Oscillator()
	g, err := cfg.BuildGrid()
	if err != nil {
		t.Fatal(err)
	}
	start := g.Clone()
	g.Step()
	// Horizontal blinker becomes vertical.
	for _, rc := range [][2]int{{1, 2}, {2, 2}, {3, 2}} {
		if !g.Alive(rc[0], rc[1]) {
			t.Errorf("cell %v should be alive after one step:\n%s", rc, g)
		}
	}
	if g.Population() != 3 {
		t.Errorf("population = %d", g.Population())
	}
	g.Step()
	if !g.Equal(start) {
		t.Errorf("blinker should return to start after two steps:\n%s", g)
	}
	if g.Generation != 2 {
		t.Errorf("generation = %d", g.Generation)
	}
}

func TestBlockStillLife(t *testing.T) {
	g, err := NewGrid(4, 4, Torus)
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		if err := g.Set(rc[0], rc[1], true); err != nil {
			t.Fatal(err)
		}
	}
	before := g.Clone()
	g.Run(5)
	if !g.Equal(before) {
		t.Errorf("block should be stable:\n%s", g)
	}
}

func TestGliderMovesOnTorus(t *testing.T) {
	g, err := NewGrid(8, 8, Torus)
	if err != nil {
		t.Fatal(err)
	}
	glider := [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}}
	for _, rc := range glider {
		g.Set(rc[0], rc[1], true)
	}
	g.Run(4) // a glider translates by (1,1) every 4 generations
	for _, rc := range glider {
		if !g.Alive(rc[0]+1, rc[1]+1) {
			t.Errorf("glider cell should be at (%d,%d):\n%s", rc[0]+1, rc[1]+1, g)
		}
	}
	if g.Population() != 5 {
		t.Errorf("glider population = %d", g.Population())
	}
}

// TestEdgeModes: the board is a torus, so three live cells around one
// corner wrap into a block across all four corners, and NewGrid refuses
// every other boundary.
func TestEdgeModes(t *testing.T) {
	g, err := NewGrid(5, 5, Torus)
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range [][2]int{{0, 0}, {0, 4}, {4, 0}} {
		g.Set(rc[0], rc[1], true)
	}
	g.Step()
	want := "@...@\n.....\n.....\n.....\n@...@\n"
	if got := g.String(); got != want {
		t.Errorf("after one generation:\n%swant:\n%s", got, want)
	}
	g.Step()
	if got := g.String(); got != want {
		t.Errorf("the corner block is not still:\n%s", got)
	}
	if Torus.String() != "torus" {
		t.Errorf("Torus.String() = %q", Torus.String())
	}
	for _, mode := range []EdgeMode{-1, 1, 2, 3} {
		g, err := NewGrid(3, 3, mode)
		if !errors.Is(err, errors.ErrUnsupported) || g != nil || !strings.Contains(err.Error(), mode.String()) {
			t.Errorf("NewGrid(3, 3, %v) = %v, %v; want an unsupported-mode error naming it", mode, g, err)
		}
	}
}

func TestGridValidation(t *testing.T) {
	// The last four are past maxGridWords words a buffer; the first of
	// them is 10^8 x 10^8, which made slices too large to allocate.
	for _, c := range []struct {
		rows, cols int
		mode       EdgeMode
	}{
		{0, 5, Torus},
		{5, 0, Torus},
		{3, 3, EdgeMode(1)},
		{100_000_000, 100_000_000, Torus},
		{maxGridWords + 1, 64, Torus},
		{2, 64 * maxGridWords, Torus},
		{1, math.MaxInt, Torus},
	} {
		if g, err := NewGrid(c.rows, c.cols, c.mode); err == nil || g != nil {
			t.Errorf("NewGrid(%d, %d, %v) = %v, %v; want an error", c.rows, c.cols, c.mode, g, err)
		}
	}
	g, _ := NewGrid(3, 3, Torus)
	if err := g.Set(3, 0, true); err == nil {
		t.Error("out-of-range Set should fail")
	}
	if err := g.Set(0, -1, true); err == nil {
		t.Error("negative col should fail")
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader("5 4 10\n0 0\n2 3\n4 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rows != 5 || cfg.Cols != 4 || cfg.Iters != 10 || len(cfg.Live) != 3 {
		t.Errorf("config: %+v", cfg)
	}
	g, err := cfg.BuildGrid()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Alive(2, 3) || g.Population() != 3 {
		t.Error("grid build mismatch")
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []string{
		"",           // no header
		"0 5 1",      // zero rows
		"5 5 -1",     // negative iterations
		"3 3 1\n5 5", // live cell out of range
		"3 3 1\n1 x", // malformed pair
	}
	for _, src := range cases {
		if _, err := ParseConfig(strings.NewReader(src)); err == nil {
			t.Errorf("config %q should fail", src)
		}
	}
}

func TestStringRendering(t *testing.T) {
	g, _ := NewGrid(2, 3, Torus)
	g.Set(0, 1, true)
	want := ".@.\n...\n"
	if g.String() != want {
		t.Errorf("String() = %q, want %q", g.String(), want)
	}
	b := g.Bools()
	if !b[0][1] || b[1][2] {
		t.Error("Bools mismatch")
	}
}

// The Lab 10 acceptance test: the parallel engine must produce exactly the
// serial engine's result for any grid, thread count, and partitioning.
func TestParallelMatchesSerial(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 4, 8} {
		for _, part := range []Partition{ByRows, ByCols} {
			for seed := int64(0); seed < 3; seed++ {
				serial, _ := NewGrid(20, 17, Torus)
				serial.Randomize(seed, 0.35)
				parallel := serial.Clone()

				serial.Run(6)
				pr := &ParallelRunner{G: parallel, Threads: threads, partition: part}
				stats, err := pr.RunCtx(context.Background(), 6)
				if err != nil {
					t.Fatalf("threads=%d part=%v seed=%d: %v", threads, part, seed, err)
				}
				if !parallel.Equal(serial) {
					t.Errorf("threads=%d part=%v seed=%d: parallel diverged from serial",
						threads, part, seed)
				}
				if stats.Rounds != 6 {
					t.Errorf("rounds = %d", stats.Rounds)
				}
			}
		}
	}
}

// Property: serial/parallel equivalence over random configurations.
func TestParallelEquivalenceProperty(t *testing.T) {
	f := func(seed int64, tRaw, pRaw uint8) bool {
		threads := int(tRaw%6) + 1
		part := Partition(int(pRaw) % 2)
		serial, err := NewGrid(12, 9, Torus)
		if err != nil {
			return false
		}
		serial.Randomize(seed, 0.4)
		parallel := serial.Clone()
		serial.Run(3)
		pr := &ParallelRunner{G: parallel, Threads: threads, partition: part}
		if _, err := pr.RunCtx(context.Background(), 3); err != nil {
			return false
		}
		return parallel.Equal(serial)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParallelRunnerValidation(t *testing.T) {
	g, _ := NewGrid(4, 4, Torus)
	pr := &ParallelRunner{G: g, Threads: 0}
	if _, err := pr.RunCtx(context.Background(), 1); err == nil {
		t.Error("0 threads should fail")
	}
}

func TestParallelMoreThreadsThanRows(t *testing.T) {
	serial, _ := NewGrid(3, 3, Torus)
	serial.Randomize(5, 0.5)
	parallel := serial.Clone()
	serial.Run(2)
	pr := &ParallelRunner{G: parallel, Threads: 16, partition: ByRows}
	if _, err := pr.RunCtx(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if !parallel.Equal(serial) {
		t.Error("oversubscribed run diverged")
	}
}

func TestOnRoundCallback(t *testing.T) {
	g, _ := NewGrid(6, 6, Torus)
	g.Randomize(1, 0.4)
	var gens []int
	pr := &ParallelRunner{
		G: g, Threads: 2,
		onRound: func(g *Grid) { gens = append(gens, g.Generation) },
	}
	if _, err := pr.RunCtx(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if len(gens) != 4 {
		t.Fatalf("callback rounds: %v", gens)
	}
	for i, gen := range gens {
		if gen != i+1 {
			t.Errorf("round %d saw generation %d", i, gen)
		}
	}
}

func TestOwnerPartitioning(t *testing.T) {
	g, _ := NewGrid(10, 10, Torus)
	owner := Engine{Workers: 3, Partition: ByRows}.Owner(g)
	if owner(0, 5) != 0 || owner(9, 5) != 2 {
		t.Errorf("row owners: %d, %d", owner(0, 5), owner(9, 5))
	}
	// ByCols tiles are 64-column word blocks: on a 130-column board (three
	// words) two threads split words {0, 1} and {2}.
	wide, _ := NewGrid(10, 130, Torus)
	colOwner := Engine{Workers: 2, Partition: ByCols}.Owner(wide)
	for c, want := range map[int]int{0: 0, 63: 0, 64: 0, 127: 0, 128: 1, 129: 1} {
		if got := colOwner(5, c); got != want {
			t.Errorf("column %d owned by %d, want %d", c, got, want)
		}
	}
	if ByRows.String() != "rows" || ByCols.String() != "columns" {
		t.Error("partition names")
	}
}

// TestRunnerReuseReportsWorkers: runners clamp surplus workers for the run
// at hand, report the clamp in RunStats.Workers, and never write it back
// into their own fields, so a runner reused on a wider or taller board
// gets its full worker count back.
func TestRunnerReuseReportsWorkers(t *testing.T) {
	narrow, _ := NewGrid(8, 64, Torus)
	wide, _ := NewGrid(8, 1024, Torus)
	pr := &ParallelRunner{G: narrow, Threads: 8, partition: ByCols}
	for _, c := range []struct {
		g    *Grid
		want int
	}{{narrow, 1}, {wide, 8}} {
		pr.G = c.g
		stats, err := pr.RunCtx(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Workers != c.want || pr.Threads != 8 {
			t.Errorf("%d columns: Workers = %d, Threads = %d; want %d and 8", c.g.Cols, stats.Workers, pr.Threads, c.want)
		}
	}

	short, _ := NewGrid(3, 16, Torus)
	tall, _ := NewGrid(16, 16, Torus)
	dr := &DistRunner{G: short, Ranks: 8}
	for _, c := range []struct {
		g    *Grid
		want int
	}{{short, 3}, {tall, 8}} {
		dr.G = c.g
		stats, err := dr.RunCtx(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Workers != c.want || dr.Ranks != 8 {
			t.Errorf("%d rows: Workers = %d, Ranks = %d; want %d and 8", c.g.Rows, stats.Workers, dr.Ranks, c.want)
		}
	}
}

func TestLiveUpdatesCounted(t *testing.T) {
	cfg := Oscillator()
	g, _ := cfg.BuildGrid()
	pr := &ParallelRunner{G: g, Threads: 2}
	stats, err := pr.RunCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Blinker flips 4 cells per step (2 die, 2 born).
	if stats.LiveUpdates != 4 {
		t.Errorf("live updates = %d, want 4", stats.LiveUpdates)
	}
}

func BenchmarkLifeSerial64(b *testing.B) {
	g, _ := NewGrid(64, 64, Torus)
	g.Randomize(1, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}

func BenchmarkLifeParallel64x4(b *testing.B) {
	g, _ := NewGrid(64, 64, Torus)
	g.Randomize(1, 0.3)
	pr := &ParallelRunner{G: g, Threads: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.RunCtx(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}
