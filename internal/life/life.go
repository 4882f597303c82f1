// Package life implements Conway's Game of Life exactly as CS 31's Labs 6
// and 10 assign it: a serial engine over a 2D grid loaded from the lab's
// file format, and a parallel engine that partitions the grid by rows or
// columns across pthread-style threads, synchronizing each round with a
// barrier and reducing per-thread statistics after join. The parallel
// engine is the course's flagship demonstration of near-linear speedup on
// multicore hardware.
package life

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"cs31/internal/msgpass"
	"cs31/internal/obs"
	"cs31/internal/pthread"
)

// EdgeMode names a board's boundary. The lab's board is a torus, and it is
// the only boundary the engines run: NewGrid refuses every other value.
type EdgeMode int

// Torus wraps both axes: row -1 is the last row and column -1 the last
// column, so every cell has eight neighbors, as Labs 6 and 10 assign.
const Torus EdgeMode = 0

func (m EdgeMode) String() string {
	if m == Torus {
		return "torus"
	}
	return fmt.Sprintf("EdgeMode(%d)", int(m))
}

// Partition selects how the parallel engine splits the grid (the lab asks
// for both and has students compare).
type Partition int

// Grid partitioning strategies.
const (
	ByRows Partition = iota
	ByCols
)

func (p Partition) String() string {
	if p == ByRows {
		return "rows"
	}
	return "columns"
}

// Grid is a Game of Life board with double buffering, bit-packed 64 cells
// per uint64 word (layout and kernel in packed.go). Every engine — serial,
// parallel, distributed — advances it through the same SWAR kernel.
type Grid struct {
	Rows, Cols int
	Generation int

	cells []uint64 // current generation: row r is cells[r*wpr : (r+1)*wpr]
	next  []uint64 // scratch for the next generation
	wpr   int      // words per row: (Cols+63)/64
}

// maxGridWords bounds each of a grid's two buffers: 1<<27 words is 1 GiB
// and 2^33 cells, 2,048 boards of 2048x2048.
const maxGridWords = 1 << 27

// NewGrid allocates an empty torus. It refuses any other mode, and a board
// whose buffers would exceed maxGridWords words: cols is bounded first, so
// its word count cannot wrap, and rows by division, so no product can.
func NewGrid(rows, cols int, mode EdgeMode) (*Grid, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("life: grid %dx%d invalid", rows, cols)
	}
	if mode != Torus {
		return nil, fmt.Errorf("life: %v boundary, the board is a torus: %w", mode, errors.ErrUnsupported)
	}
	if cols > 64*maxGridWords || rows > maxGridWords/wordsPerRow(cols) {
		return nil, fmt.Errorf("life: grid %dx%d exceeds %d words per buffer", rows, cols, maxGridWords)
	}
	wpr := wordsPerRow(cols)
	return &Grid{
		Rows: rows, Cols: cols,
		cells: make([]uint64, rows*wpr),
		next:  make([]uint64, rows*wpr),
		wpr:   wpr,
	}, nil
}

// Set makes cell (r, c) alive or dead.
func (g *Grid) Set(r, c int, alive bool) error {
	if r < 0 || r >= g.Rows || c < 0 || c >= g.Cols {
		return fmt.Errorf("life: cell (%d,%d) outside %dx%d grid", r, c, g.Rows, g.Cols)
	}
	bit := uint64(1) << (uint(c) & 63)
	w := r*g.wpr + c>>6
	if alive {
		g.cells[w] |= bit
	} else {
		g.cells[w] &^= bit
	}
	return nil
}

// Alive reports whether cell (r, c) is live.
func (g *Grid) Alive(r, c int) bool {
	return g.cells[r*g.wpr+c>>6]>>(uint(c)&63)&1 == 1
}

// Population counts live cells with one popcount per word.
func (g *Grid) Population() int {
	n := 0
	for _, w := range g.cells {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone deep-copies the grid.
func (g *Grid) Clone() *Grid {
	return &Grid{
		Rows: g.Rows, Cols: g.Cols, Generation: g.Generation,
		cells: append([]uint64(nil), g.cells...),
		next:  make([]uint64, len(g.next)),
		wpr:   g.wpr,
	}
}

// Equal compares live-cell patterns. Slack lanes are always zero, so equal
// boards have equal words.
func (g *Grid) Equal(o *Grid) bool {
	if g.Rows != o.Rows || g.Cols != o.Cols {
		return false
	}
	for i := range g.cells {
		if g.cells[i] != o.cells[i] {
			return false
		}
	}
	return true
}

// neighbors counts the live neighbors of (r, c) on the torus, one Alive
// call per neighbor — the straight-line Lab 6 definition the packed kernel
// is differential-tested against; the hot paths never call it.
func (g *Grid) neighbors(r, c int) int {
	n := 0
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 {
				continue
			}
			if g.Alive((r+dr+g.Rows)%g.Rows, (c+dc+g.Cols)%g.Cols) {
				n++
			}
		}
	}
	return n
}

// stepReference advances one generation through the per-cell Lab 6 loop —
// count each cell's neighbors, apply the birth/survival rule, write the
// cell into the next board through Set — and returns how many cells
// changed state. It is the oracle every engine's differential tests and
// FuzzPackedLife compare boards and live-update counts against.
func (g *Grid) stepReference() int64 {
	next := g.Clone()
	var changed int64
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			n := g.neighbors(r, c)
			alive := g.Alive(r, c)
			live := n == 3 || (n == 2 && alive)
			if live != alive {
				changed++
			}
			_ = next.Set(r, c, live) // in range by the loop bounds
		}
	}
	g.cells = next.cells
	g.Generation++
	return changed
}

// swap promotes the scratch buffer to current.
func (g *Grid) swap() {
	g.cells, g.next = g.next, g.cells
	g.Generation++
}

// Run advances n generations serially (Lab 6) through the SWAR kernel —
// the same kernel the parallel tiles and distributed bands run, so
// measured speedups are against a fast serial baseline — and reports how
// many cells changed state in total: the serial twin of the parallel
// runner's LiveUpdates statistic, recovered from a popcount of each
// word's change mask.
func (g *Grid) Run(n int) int64 {
	var changed int64
	for i := 0; i < n; i++ {
		changed += g.stepPackedBlock(0, g.Rows, 0, g.wpr)
		g.swap()
	}
	return changed
}

// Bools returns the grid as [][]bool for the visualizer.
func (g *Grid) Bools() [][]bool {
	out := make([][]bool, g.Rows)
	for r := range out {
		out[r] = make([]bool, g.Cols)
		for c := range out[r] {
			out[r][c] = g.Alive(r, c)
		}
	}
	return out
}

// String renders the grid in the lab's console format.
func (g *Grid) String() string {
	var sb strings.Builder
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if g.Alive(r, c) {
				sb.WriteByte('@')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Config is the lab's input file contents.
type Config struct {
	Rows, Cols, Iters int
	Live              [][2]int
}

// ParseConfig reads the Lab 6 file format: three header integers (rows,
// cols, iterations), then "row col" pairs of initially live cells.
func ParseConfig(r io.Reader) (*Config, error) {
	var cfg Config
	if _, err := fmt.Fscan(r, &cfg.Rows, &cfg.Cols, &cfg.Iters); err != nil {
		return nil, fmt.Errorf("life: bad config header: %w", err)
	}
	if cfg.Rows < 1 || cfg.Cols < 1 || cfg.Iters < 0 {
		return nil, fmt.Errorf("life: invalid config %dx%d iters %d", cfg.Rows, cfg.Cols, cfg.Iters)
	}
	for {
		var rr, cc int
		_, err := fmt.Fscan(r, &rr, &cc)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("life: bad live-cell pair: %w", err)
		}
		if rr < 0 || rr >= cfg.Rows || cc < 0 || cc >= cfg.Cols {
			return nil, fmt.Errorf("life: live cell (%d,%d) outside grid", rr, cc)
		}
		cfg.Live = append(cfg.Live, [2]int{rr, cc})
	}
	return &cfg, nil
}

// BuildGrid makes a torus from a parsed config.
func (cfg *Config) BuildGrid() (*Grid, error) {
	g, err := NewGrid(cfg.Rows, cfg.Cols, Torus)
	if err != nil {
		return nil, err
	}
	for _, rc := range cfg.Live {
		if err := g.Set(rc[0], rc[1], true); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Oscillator returns the classic blinker config used in the lab handout.
func Oscillator() *Config {
	return &Config{
		Rows: 5, Cols: 5, Iters: 4,
		Live: [][2]int{{2, 1}, {2, 2}, {2, 3}},
	}
}

// RunStats is what one engine run reports. The parallel threads and the
// dist ranks each accumulate their tile's counts privately, and the engine
// reduces them after join.
type RunStats struct {
	LiveUpdates int64 // cells that changed state, summed across threads
	Rounds      int
	Workers     int                // threads or ranks the run used, after clamping to the partition extent
	Comm        msgpass.WorldStats // a dist run's traffic counters; zero on the other engines
}

// Engine is the spec Advance runs a board on. Workers up to 1 names the
// serial engine (Lab 6) on the calling goroutine; more name the parallel
// engine (Lab 10) with that many threads, or with Dist the message-passing
// engine with that many ranks. Advance takes the spec by value, and no
// engine writes it.
type Engine struct {
	Workers   int
	Partition Partition // the parallel engine's split; the dist engine shards by rows only
	Dist      bool

	// Trace, if non-nil, records the run's timeline. The serial engine
	// records a "generation" span per generation on one "serial" lane;
	// ParallelRunner and DistRunner document their per-worker lanes.
	Trace *obs.Trace

	// OnRound, if non-nil, is called with each freshly computed
	// generation, in order (used for visualization): on the calling
	// goroutine by the serial engine, by the round's serial thread by the
	// parallel engine (ParallelRunner documents the ordering). The dist
	// engine refuses it: its generations exist only as per-rank bands
	// until the final gather.
	OnRound func(g *Grid)

	// Chaos arms seeded fault injection on a dist run's world: bounded
	// delivery delays and rank stalls that perturb timing without touching
	// message order, so the halo exchange can be stress-tested against
	// stragglers while staying bit-for-bit equal to the serial engine.
	// Watchdog, when positive, arms the world's deadlock detector: a
	// protocol hang surfaces as a structured DeadlockError naming the
	// blocked ranks. Only a dist run of 2 or more ranks takes either.
	Chaos    *msgpass.Chaos
	Watchdog time.Duration
}

// extent is the number of partition units g splits into: rows under
// ByRows, 64-cell words under ByCols. A ByCols tile is a block of whole
// words — word w needs only read-shared access to words w-1 and w+1 of the
// source parity buffer, so word tiles compose with the SWAR kernel with no
// intra-word edge handling — and a board narrower than 64*T columns
// therefore runs fewer than T column tiles. Engines clamp their worker
// count to it: surplus workers would own empty tiles and only add
// synchronization traffic.
func (g *Grid) extent(part Partition) int {
	if part == ByCols {
		return g.wpr
	}
	return g.Rows
}

// Owner returns the ParaVis colouring of g under e: the worker that owns
// cell (r, c), following the 64-cell word the column lives in under
// ByCols. It returns nil when e names the serial engine, so a serial
// render stays uncoloured.
func (e Engine) Owner(g *Grid) func(r, c int) int {
	if e.Workers <= 1 {
		return nil
	}
	extent := g.extent(e.Partition)
	workers := min(e.Workers, extent)
	return func(r, c int) int {
		pos := r
		if e.Partition == ByCols {
			pos = c >> 6
		}
		for id := 0; id < workers; id++ {
			if _, hi := pthread.BlockRange(id, workers, extent); pos < hi {
				return id
			}
		}
		return 0
	}
}

// errNegativeGens classes a run asked for fewer than zero generations.
var errNegativeGens = errors.New("negative generation count")

// enter is the check every engine runs before any work: n < 0 and fewer
// than 1 worker are errors, a nil ctx means context.Background(), and a
// done ctx fails whatever n is. The runners call it before they spawn a
// thread or start a world, so a refused run leaves the grid untouched; for
// the serial engine it is the first ctx poll.
func enter(ctx context.Context, engine string, workers, n int) (context.Context, error) {
	if n < 0 {
		return nil, fmt.Errorf("life: %s run of %d generations: %w", engine, n, errNegativeGens)
	}
	if workers < 1 {
		return nil, fmt.Errorf("life: %s run on %d workers, need at least 1", engine, workers)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("life: %s run not started: %w", engine, err)
	}
	return ctx, nil
}

// serialPollGens is how many generations the serial engine runs between
// ctx polls: Run has no cancellation point of its own, so a canceled run
// stops on the next multiple of serialPollGens.
const serialPollGens = 8

// Advance runs n generations of g under ctx on the engine e names. It is
// the one engine entry labd, the sweep engine, cmd/life and
// examples/gameoflife share. It first refuses settings the named engine
// cannot honour, with an error wrapping errors.ErrUnsupported: dist with
// ByCols or OnRound at any worker count, and Chaos or Watchdog without a
// dist run of 2 or more ranks. Every engine
// then applies enter's rules. The serial engine polls ctx every
// serialPollGens generations; the parallel and dist engines run a
// ParallelRunner or a DistRunner under the same ctx.
func Advance(ctx context.Context, g *Grid, e Engine, n int) (*RunStats, error) {
	switch {
	case e.Dist && e.Partition != ByRows:
		return nil, fmt.Errorf("life: the dist engine shards by rows only: %w", errors.ErrUnsupported)
	case e.Dist && e.OnRound != nil:
		return nil, fmt.Errorf("life: the dist engine takes no OnRound callback: %w", errors.ErrUnsupported)
	case (e.Chaos != nil || e.Watchdog > 0) && !(e.Dist && e.Workers > 1):
		return nil, fmt.Errorf("life: chaos and watchdog need the dist engine on 2 or more ranks: %w", errors.ErrUnsupported)
	case e.Workers > 1 && e.Dist:
		return (&DistRunner{G: g, Ranks: e.Workers, Trace: e.Trace, chaos: e.Chaos, watchdog: e.Watchdog}).RunCtx(ctx, n)
	case e.Workers > 1:
		return (&ParallelRunner{G: g, Threads: e.Workers, Trace: e.Trace, partition: e.Partition, onRound: e.OnRound}).RunCtx(ctx, n)
	}
	ctx, err := enter(ctx, "serial", 1, n)
	if err != nil {
		return nil, err
	}
	var lane *obs.Lane
	var nGen obs.Name
	if e.Trace != nil {
		lane, nGen = e.Trace.Lane("serial"), e.Trace.Name("generation")
	}
	var updates int64
	for gen := 0; gen < n; gen++ {
		if gen > 0 && gen%serialPollGens == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("life: serial run canceled after %d of %d generations: %w", gen, n, ctx.Err())
		}
		lane.Begin(nGen)
		updates += g.Run(1)
		lane.End(nGen)
		if e.OnRound != nil {
			e.OnRound(g)
		}
	}
	return &RunStats{LiveUpdates: updates, Rounds: n, Workers: 1}, nil
}

// ParallelRunner is the parallel engine (Lab 10): worker threads that each
// own a tile of the grid. Advance builds one for every caller in this
// module; the runner stays exported, with the fields cs31bench sets,
// because the benchmark module (bench/) drives it directly. The runner
// never writes its own fields: the thread count a run actually uses is
// reported in RunStats.Workers, so a runner can be reused across boards.
type ParallelRunner struct {
	G       *Grid
	Threads int

	// Trace, if non-nil, records one timeline lane per worker: a
	// "generation" span around each kernel step and a "barrier-wait" span
	// around each crossing. Lanes and name handles are registered before
	// the workers spawn, so the per-round recording path allocates
	// nothing; a nil Trace costs a few inlined nil checks per round.
	Trace *obs.Trace

	// BarrierWaits, if non-nil, receives the duration of every barrier
	// crossing (one observation per worker per generation), sharded by
	// party id.
	BarrierWaits *obs.Histogram

	partition Partition // Engine.Partition; ByRows unless Advance sets it

	// onRound is Engine.OnRound, called by the round's serial thread with
	// the freshly computed generation. Successive callbacks are ordered
	// (round r's callback happens before round r+1's), but other workers
	// may already be computing the next generation while a callback runs;
	// the grid state the callback observes is stable until it returns.
	onRound func(g *Grid)
}

// noStop is stopRound's armed-but-not-triggered sentinel.
const noStop = math.MaxInt64

// RunCtx advances n generations in parallel under ctx, after enter's
// checks: each thread owns a block of rows (or word columns) and runs the
// same SWAR kernel as the serial engine over it. One combining-tree
// barrier crossing separates generations: the parity swap is thread-local
// (each worker alternates src/dst every round), so no shared state needs a
// second protected phase — the round's serial thread publishes the new
// generation on the Grid while the others proceed. LiveUpdates accumulate
// in a register per worker and land in a cache-line-padded shard once
// after the loop, reduced after join; the per-generation hot path takes no
// lock and allocates nothing.
//
// Cancellation must be *uniform*: every worker has to leave the round loop
// at the same round boundary, or the leavers strand the stayers at the
// next barrier forever. The round's serial thread is the only cancellation
// observer: on a canceled context it arms stopRound = r+2 (stop before
// round r+2) after publishing round r. Every worker compares its finished
// round against stopRound at the bottom of each iteration; the barrier's
// own synchronization guarantees that by the time any worker finishes
// round r+1 it sees the arm (the serial thread stored it before arriving
// at barrier r+1), so all workers break together after round r+1.
// Cancellation therefore costs at most one extra generation of latency,
// the grid is left on a whole-generation boundary, and the error wraps
// ctx.Err().
func (pr *ParallelRunner) RunCtx(ctx context.Context, n int) (*RunStats, error) {
	ctx, err := enter(ctx, "parallel", pr.Threads, n)
	if err != nil {
		return nil, err
	}
	g := pr.G
	extent := g.extent(pr.partition)
	threads := min(pr.Threads, extent)
	barrier, err := pthread.NewBarrier(threads)
	if err != nil {
		return nil, err
	}
	if pr.BarrierWaits != nil {
		barrier.ObserveWaits(pr.BarrierWaits)
	}
	// Pre-register trace lanes and name handles outside the hot path:
	// workers record through fixed handles and never touch a string.
	var lanes []*obs.Lane
	var nGen, nBarrier obs.Name
	if pr.Trace != nil {
		nGen = pr.Trace.Name("generation")
		nBarrier = pr.Trace.Name("barrier-wait")
		lanes = make([]*obs.Lane, threads)
		for i := range lanes {
			lanes[i] = pr.Trace.Lane(fmt.Sprintf("worker %d", i))
		}
	}
	stats := &RunStats{Workers: threads}
	shards := make([]int64, threads*pthread.ShardStride)
	rows, cols, wpr := g.Rows, g.Cols, g.wpr
	src0, dst0 := g.cells, g.next
	byRows := pr.partition == ByRows
	var stopRound atomic.Int64
	stopRound.Store(noStop)
	ctxDone := ctx.Done()

	worker := func(id int) error {
		lo, hi := pthread.BlockRange(id, threads, extent)
		loRow, hiRow, loW, hiW := lo, hi, 0, wpr
		if !byRows {
			loRow, hiRow, loW, hiW = 0, rows, lo, hi
		}
		src, dst := src0, dst0
		var lane *obs.Lane
		if lanes != nil {
			lane = lanes[id]
		}
		var updates int64
		for round := 0; round < n; round++ {
			lane.Begin(nGen)
			updates += stepPackedSlices(src, dst, rows, cols, wpr, loRow, hiRow, loW, hiW)
			lane.End(nGen)
			// One barrier per generation: nobody may read dst as a source
			// until every tile of it is written. The serial thread
			// publishes the round on the Grid; that is safe against round
			// r+2 overwriting dst because round r+2 cannot start before
			// barrier r+1 completes, which needs the serial thread's
			// arrival after its callback returns.
			lane.Begin(nBarrier)
			serial := barrier.WaitParty(id)
			lane.End(nBarrier)
			if serial {
				g.cells, g.next = dst, src
				g.Generation++
				stats.Rounds++
				if pr.onRound != nil {
					pr.onRound(g)
				}
				// Arm the uniform stop. Round serial threads are totally
				// ordered, so the CAS fires at most once; workers racing
				// through this round's bottom check may miss the arm, but
				// the barrier they cross next publishes it to everyone.
				if ctxDone != nil && ctx.Err() != nil {
					stopRound.CompareAndSwap(noStop, int64(round)+2)
				}
			}
			src, dst = dst, src
			if int64(round)+1 >= stopRound.Load() {
				break
			}
		}
		shards[id*pthread.ShardStride] = updates
		return nil
	}

	if err := pthread.ForkJoin(threads, worker); err != nil {
		return nil, err
	}
	for id := 0; id < threads; id++ {
		stats.LiveUpdates += shards[id*pthread.ShardStride]
	}
	if stopRound.Load() != noStop {
		return nil, fmt.Errorf("life: parallel run canceled after %d of %d rounds: %w", stats.Rounds, n, ctx.Err())
	}
	return stats, nil
}
