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
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"

	"cs31/internal/obs"
	"cs31/internal/pthread"
)

// EdgeMode selects boundary behaviour.
type EdgeMode int

// Boundary modes: the lab uses a torus; dead edges are the simpler variant
// students sometimes build first. Alive edges (every out-of-bounds cell is
// permanently live) and mirror edges (out-of-bounds coordinates clamp to the
// nearest in-bounds row/column, so the board sees its own reflection) round
// out the set the packed kernel synthesizes as ghost rows and columns.
const (
	Torus EdgeMode = iota
	DeadEdges
	AliveEdges
	MirrorEdges
)

func (m EdgeMode) String() string {
	switch m {
	case Torus:
		return "torus"
	case DeadEdges:
		return "dead-edges"
	case AliveEdges:
		return "alive-edges"
	case MirrorEdges:
		return "mirror"
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
	Mode       EdgeMode
	Generation int

	cells   []uint64 // current generation: row r is cells[r*wpr : (r+1)*wpr]
	next    []uint64 // scratch for the next generation
	wpr     int      // words per row: (Cols+63)/64
	zeroRow []uint64 // all-dead row standing in for out-of-bounds rows (DeadEdges)
	oneRow  []uint64 // all-live row standing in for out-of-bounds rows (AliveEdges)
}

// NewGrid allocates an empty grid.
func NewGrid(rows, cols int, mode EdgeMode) (*Grid, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("life: grid %dx%d invalid", rows, cols)
	}
	wpr := wordsPerRow(cols)
	return &Grid{
		Rows: rows, Cols: cols, Mode: mode,
		cells:   make([]uint64, rows*wpr),
		next:    make([]uint64, rows*wpr),
		wpr:     wpr,
		zeroRow: make([]uint64, wpr),
		oneRow:  liveRow(cols),
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
		Rows: g.Rows, Cols: g.Cols, Mode: g.Mode, Generation: g.Generation,
		cells:   append([]uint64(nil), g.cells...),
		next:    make([]uint64, len(g.next)),
		wpr:     g.wpr,
		zeroRow: make([]uint64, g.wpr),
		oneRow:  append([]uint64(nil), g.oneRow...),
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

// neighbors counts the live neighbors of (r, c) under the edge mode, one
// Alive call per neighbor — the straight-line Lab 6 definition the packed
// kernel is differential-tested against; the hot paths never call it.
func (g *Grid) neighbors(r, c int) int {
	n := 0
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 {
				continue
			}
			rr, cc := r+dr, c+dc
			oob := rr < 0 || rr >= g.Rows || cc < 0 || cc >= g.Cols
			switch g.Mode {
			case Torus:
				rr = (rr + g.Rows) % g.Rows
				cc = (cc + g.Cols) % g.Cols
			case DeadEdges:
				if oob {
					continue
				}
			case AliveEdges:
				// Any out-of-bounds coordinate — row, column, or both —
				// makes the neighbor a permanently live ghost cell.
				if oob {
					n++
					continue
				}
			case MirrorEdges:
				// Row and column clamp independently to the nearest
				// in-bounds index: the board sees its own reflection.
				rr = clamp(rr, g.Rows)
				cc = clamp(cc, g.Cols)
			}
			if g.Alive(rr, cc) {
				n++
			}
		}
	}
	return n
}

// clamp maps an out-of-bounds index one step past either end back onto the
// nearest in-bounds index (mirror reflection across the edge).
func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
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

// Step advances one generation serially (Lab 6) through the SWAR kernel —
// the same kernel the parallel tiles and distributed bands run, so
// measured speedups are against a fast serial baseline.
func (g *Grid) Step() {
	g.stepPackedBlock(0, g.Rows, 0, g.wpr)
	g.swap()
}

// Run advances n generations serially.
func (g *Grid) Run(n int) {
	for i := 0; i < n; i++ {
		g.Step()
	}
}

// RunCounted advances n generations serially and reports how many cells
// changed state in total — the serial twin of the parallel runner's
// LiveUpdates statistic, recovered from a popcount of each word's change
// mask.
func (g *Grid) RunCounted(n int) int64 {
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

// BuildGrid makes a grid from a parsed config.
func (cfg *Config) BuildGrid(mode EdgeMode) (*Grid, error) {
	g, err := NewGrid(cfg.Rows, cfg.Cols, mode)
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

// RunStats is the per-run statistics the parallel workers produce: each
// thread accumulates its tile's counts privately and the runner reduces
// them after join.
type RunStats struct {
	LiveUpdates int64 // cells that changed state, summed across threads
	Rounds      int
	Workers     int // threads or ranks the run used, after clamping to the partition extent
}

// statShardStride spaces per-thread LiveUpdates accumulators a cache line
// apart (8 int64s = 64 bytes, matching pthread.Sharded), so the one store
// each worker issues after its loop never false-shares with a neighbor.
const statShardStride = 8

// ParallelRunner advances a grid with worker threads (Lab 10). The runner
// never writes its own fields: the thread count a run actually uses is
// reported in RunStats.Workers, so a runner can be reused across boards.
type ParallelRunner struct {
	G         *Grid
	Threads   int
	Partition Partition

	// OnRound, if non-nil, is called by the round's serial thread with the
	// freshly computed generation (used for visualization). Successive
	// callbacks are ordered (round r's callback happens before round
	// r+1's), but other workers may already be computing the next
	// generation while a callback runs; the grid state the callback
	// observes is stable until it returns.
	OnRound func(g *Grid)

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
}

// extent is the number of partition units the grid splits into: rows
// under ByRows, 64-cell words under ByCols. A ByCols tile is a block of
// whole words — word w needs only read-shared access to words w-1 and w+1
// of the source parity buffer, so word tiles compose with the SWAR kernel
// with no intra-word edge handling — and a board narrower than 64*T
// columns therefore runs fewer than T column tiles.
func (pr *ParallelRunner) extent() int {
	if pr.Partition == ByCols {
		return pr.G.wpr
	}
	return pr.G.Rows
}

// workers clamps the requested thread count to the partition extent:
// surplus threads would own empty tiles, and spawning them only adds
// barrier traffic.
func (pr *ParallelRunner) workers() int {
	return min(pr.Threads, pr.extent())
}

// Run advances n generations in parallel: each thread owns a block of rows
// (or word columns) and runs the same SWAR kernel as the serial engine
// over it. One combining-tree barrier crossing separates generations: the
// parity swap is thread-local (each worker alternates src/dst every
// round), so no shared state needs a second protected phase — the round's
// serial thread publishes the new generation on the Grid while the others
// proceed. LiveUpdates accumulate in a register per worker and land in a
// cache-line-padded shard once after the loop, reduced after join; the
// per-generation hot path takes no lock and allocates nothing.
func (pr *ParallelRunner) Run(n int) (*RunStats, error) {
	return pr.RunCtx(context.Background(), n)
}

// noStop is stopRound's armed-but-not-triggered sentinel.
const noStop = math.MaxInt64

// RunCtx is Run under a context. Cancellation must be *uniform*: every
// worker has to leave the round loop at the same round boundary, or the
// leavers strand the stayers at the next barrier forever. The round's
// serial thread is the only cancellation observer: on a canceled context it
// arms stopRound = r+2 (stop before round r+2) after publishing round r.
// Every worker compares its finished round against stopRound at the bottom
// of each iteration; the barrier's own synchronization guarantees that by
// the time any worker finishes round r+1 it sees the arm (the serial thread
// stored it before arriving at barrier r+1), so all workers break together
// after round r+1. Cancellation therefore costs at most one extra
// generation of latency, the grid is left on a whole-generation boundary,
// and the error wraps ctx.Err().
func (pr *ParallelRunner) RunCtx(ctx context.Context, n int) (*RunStats, error) {
	if pr.Threads < 1 {
		return nil, fmt.Errorf("life: need at least 1 thread")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("life: parallel run not started: %w", err)
	}
	g := pr.G
	extent, threads := pr.extent(), pr.workers()
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
	shards := make([]int64, threads*statShardStride)
	rows, cols, wpr, mode := g.Rows, g.Cols, g.wpr, g.Mode
	src0, dst0 := g.cells, g.next
	zero, one := g.zeroRow, g.oneRow
	byRows := pr.Partition == ByRows
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
			updates += stepPackedSlices(src, dst, zero, one, rows, cols, wpr, mode, loRow, hiRow, loW, hiW)
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
				if pr.OnRound != nil {
					pr.OnRound(g)
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
		shards[id*statShardStride] = updates
		return nil
	}

	if err := pthread.ForkJoin(threads, worker); err != nil {
		return nil, err
	}
	for id := 0; id < threads; id++ {
		stats.LiveUpdates += shards[id*statShardStride]
	}
	if stopRound.Load() != noStop {
		return nil, fmt.Errorf("life: parallel run canceled after %d of %d rounds: %w", stats.Rounds, n, ctx.Err())
	}
	return stats, nil
}

// serialPollGens is how many generations the serial engine in Advance runs
// between ctx polls: Step has no cancellation point of its own, so a
// canceled run stops on the next multiple of serialPollGens.
const serialPollGens = 8

// Advance runs n generations of g under ctx on the engine that workers,
// part and dist name. It is the one engine dispatch labd, the sweep engine
// and cmd/life -bench share. workers <= 1 runs the serial engine (Lab 6)
// on the calling goroutine, polling ctx every serialPollGens generations;
// more workers run a DistRunner with that many ranks when dist is set,
// else a ParallelRunner with that many threads. The dist engine shards by
// rows only, so dist with ByCols is refused at any worker count. A nil ctx
// means context.Background().
func Advance(ctx context.Context, g *Grid, workers int, part Partition, dist bool, n int) (*RunStats, error) {
	if dist && part != ByRows {
		return nil, fmt.Errorf("life: the dist engine shards by rows only")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	switch {
	case workers > 1 && dist:
		return (&DistRunner{G: g, Ranks: workers}).RunCtx(ctx, n)
	case workers > 1:
		return (&ParallelRunner{G: g, Threads: workers, Partition: part}).RunCtx(ctx, n)
	}
	stats := &RunStats{Workers: 1}
	for stats.Rounds < n {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("life: serial run canceled after %d of %d generations: %w", stats.Rounds, n, err)
		}
		step := min(n-stats.Rounds, serialPollGens)
		stats.LiveUpdates += g.RunCounted(step)
		stats.Rounds += step
	}
	return stats, nil
}

// Owner reports which thread owns cell (r, c) under the runner's
// partitioning — used by paravis to color regions. Under ByCols ownership
// follows the 64-cell word the column lives in.
func (pr *ParallelRunner) Owner(r, c int) int {
	pos := r
	if pr.Partition == ByCols {
		pos = c >> 6
	}
	extent, threads := pr.extent(), pr.workers()
	for id := 0; id < threads; id++ {
		lo, hi := pthread.BlockRange(id, threads, extent)
		if pos >= lo && pos < hi {
			return id
		}
	}
	return 0
}
