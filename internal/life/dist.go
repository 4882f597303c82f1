package life

import (
	"context"
	"time"

	"cs31/internal/msgpass"
	"cs31/internal/obs"
	"cs31/internal/pthread"
)

// Message tags of the halo exchange. They name the direction a halo block
// travels, so the two blocks a rank exchanges with one neighbor (on 2 ranks
// the ring makes the up and down neighbor the same rank) never
// cross-match.
const (
	distTagUp   = 1 // a rank's top owned rows, sent to the neighbor above
	distTagDown = 2 // a rank's bottom owned rows, sent to the neighbor below
)

// maxGhostWords bounds the redundant work of a deep halo: the words of
// ghost rows a rank recomputes per generation on each neighbor side, one
// 4096-column row.
const maxGhostWords = 64

// haloDepth returns k, the depth of the next exchange window: each rank
// sends its k edge rows to each neighbor rank and then advances k
// generations with no further message. k is at most the generations left;
// at most the smallest band, rows/ranks, because a neighbor can only send
// rows it owns; and at most 1 + maxGhostWords/wpr, because a window
// recomputes k-1 ghost rows of wpr words per neighbor side that the
// neighbor computes too. Past 64 words a row (4096 columns) k is 1, one
// row every generation. Every rank computes the same k from values it
// already holds.
func haloDepth(left, rows, ranks, wpr int) int {
	return min(left, rows/ranks, 1+maxGhostWords/wpr)
}

// DistRunner is the dist engine: it advances a grid with message-passing
// ranks, the distributed-memory sibling of ParallelRunner. The grid is
// row-block sharded across a msgpass world: each rank owns a contiguous
// band of rows in a private local buffer, exchanges k-row halo blocks with
// its neighbor ranks by Send/Recv once every k generations (haloDepth
// picks k), and the per-rank live-update counts meet in an Allreduce. No
// rank ever writes another rank's memory; every byte that crosses a shard
// boundary is a message, and the world's counters price exactly that
// traffic. Bands and halo blocks travel as packed []uint64 words, so a
// halo row costs ceil(cols/64)*8 bytes on the wire (512 bytes at
// cols=4096), and each band advances through the SWAR kernel.
//
// Advance builds one for every caller in this module; the runner stays
// exported, with the fields cs31bench sets, because the benchmark module
// (bench/) drives it directly. The runner never writes its configuration
// fields: the rank count a run actually uses is reported in
// RunStats.Workers.
type DistRunner struct {
	G     *Grid
	Ranks int

	// Trace, if non-nil, records one timeline lane per rank: "generation"
	// and "halo-exchange" spans from the runner, plus the world's own
	// send/recv/collective events (the world is built with
	// msgpass.WithTrace), so a run renders the scatter, halo traffic,
	// stragglers, the closing allreduce and the gather in chrome://tracing
	// or Perfetto.
	Trace *obs.Trace

	// CommStats holds the world's traffic counters after RunCtx returns,
	// a failed run's partial traffic included.
	CommStats msgpass.WorldStats

	chaos    *msgpass.Chaos // Engine.Chaos
	watchdog time.Duration  // Engine.Watchdog
}

// distNeighbors returns the ranks above and below a rank on the ring the
// torus's rows make, or -1 on both sides in a one-rank world: that rank's
// band is the whole board, and the kernel wraps it with its own ghost
// rows, exactly as it does the full grid.
func distNeighbors(rank, ranks int) (up, down int) {
	if ranks == 1 {
		return -1, -1
	}
	return (rank + ranks - 1) % ranks, (rank + 1) % ranks
}

// traceHandles resolves a rank's lane and the runner's span names —
// nil lane and zero handles when tracing is off, so the per-generation
// recording calls are no-ops.
func (dr *DistRunner) traceHandles(c *msgpass.Comm) (lane *obs.Lane, nGen, nHalo obs.Name) {
	lane = c.TraceLane()
	if lane != nil {
		nGen = dr.Trace.Name("generation")
		nHalo = dr.Trace.Name("halo-exchange")
	}
	return lane, nGen, nHalo
}

// RunCtx advances n generations across the runner's ranks under ctx,
// after enter's checks, and returns the same statistics as the other
// engines, bit-for-bit equal to the serial engine's on the same board,
// plus the world's traffic counters in RunStats.Comm.
//
// Protocol per rank: Scatter hands each rank its row block from rank 0;
// the generations run in windows of k = haloDepth generations. A window
// opens with one exchange: a rank sends its top/bottom k owned rows to its
// neighbor ranks (tagUp/tagDown) and receives theirs into its halo rows.
// It then advances k generations with no message, each over its band plus
// the ghost rows the next generation still needs: in generation j of the
// window, k-1-j rows on each neighbor side, which the neighbor owns and
// advances too. After the last window the ranks Allreduce the live-update
// counts of their owned rows and Gather the bands on rank 0. k rows every
// k generations is the same number of halo rows as one a generation, so
// the halo bytes do not change; the messages do. Neighbor ranks form a
// ring, as the torus's rows do, so every rank of a world of 2 or more holds
// halo rows on both sides; a one-rank world holds none, and the kernel's
// ghost rows wrap its band, as on the full grid.
//
// When ctx is canceled mid-run the world aborts, every rank (including
// ones parked in halo receives or chaos sleeps) unwinds promptly, all rank
// goroutines are joined, and the error wraps ctx.Err(). The grid is left
// untouched on any error — generations only commit after a clean
// collection.
func (dr *DistRunner) RunCtx(ctx context.Context, n int) (*RunStats, error) {
	ctx, err := enter(ctx, "dist", dr.Ranks, n)
	if err != nil {
		return nil, err
	}
	g := dr.G
	// Clamp to the row extent, the same surplus-worker discipline as
	// ParallelRunner: ranks beyond Rows would own empty bands and only add
	// exchange traffic.
	ranks := min(dr.Ranks, g.Rows)
	// The world keeps msgpass.DefaultCapacity (16) inbox slots per rank.
	// The halo exchange posts both sends before either receive, so it is
	// deadlock-free only while no halo Send finds its destination's inbox
	// full. A rank drains its inbox only inside Recv, and while it is still
	// exchanging halos its inbox holds at most 8 messages: two exchanges'
	// blocks from each neighbor side (a neighbor cannot open a third
	// window without this rank's blocks), plus one reduce message from
	// each of up to four collective-tree children that have already
	// reached the closing Allreduce. The world's InboxHWM reports the
	// depth a run reached.
	var opts []msgpass.Option
	if dr.chaos != nil {
		opts = append(opts, msgpass.WithChaos(*dr.chaos))
	}
	if dr.Trace != nil {
		opts = append(opts, msgpass.WithTrace(dr.Trace))
	}
	if dr.watchdog > 0 {
		opts = append(opts, msgpass.WithWatchdog(dr.watchdog))
	}
	world, err := msgpass.NewWorld(ranks, opts...)
	if err != nil {
		return nil, err
	}

	stats := &RunStats{Workers: ranks}
	err = world.RunCtx(ctx, func(c *msgpass.Comm) error {
		return dr.runRank(c, ranks, n, stats)
	})
	// Record traffic counters even on a failed run: a canceled or deadlocked
	// run's partial traffic is exactly what fault diagnosis wants to see.
	dr.CommStats = world.Stats()
	if err != nil {
		return nil, err
	}
	stats.Comm = dr.CommStats
	// Promote the assembled generation. One swap suffices: the Grid's
	// buffers were never touched mid-run, only the scratch side at
	// collection time.
	g.cells, g.next = g.next, g.cells
	g.Generation += n
	return stats, nil
}

// runRank is one rank of the protocol in a world of ranks ranks.
func (dr *DistRunner) runRank(c *msgpass.Comm, ranks, n int, stats *RunStats) error {
	g := dr.G
	wpr := g.wpr
	lane, nGen, nHalo := dr.traceHandles(c)
	rank := c.Rank()
	up, down := distNeighbors(rank, ranks)

	// Distribute: rank 0 scatters every rank's band of the grid, which no
	// rank writes during the run, as a view; its own band never leaves it.
	var bands [][]uint64
	if rank == 0 {
		bands = make([][]uint64, ranks)
		for r := range bands {
			lo, hi := pthread.BlockRange(r, ranks, g.Rows)
			bands[r] = g.cells[lo*wpr : hi*wpr]
		}
	}
	block, err := msgpass.Scatter(c, 0, bands)
	if err != nil {
		return err
	}

	// Local shard: the band's owned rows [top, end) between the first
	// window's depth of halo rows on each side, where the rank has
	// neighbors. No later window is deeper. Halo rows hold received rows
	// and the ghost rows advanced from them, never owned ones.
	band, top := len(block)/wpr, 0
	if up >= 0 {
		top = haloDepth(n, g.Rows, ranks, wpr)
	}
	end := top + band
	rows := end + top // as many halo rows below the band as above
	src := make([]uint64, rows*wpr)
	dst := make([]uint64, rows*wpr)
	copy(src[top*wpr:], block)
	step := func(lo, hi int) int64 {
		return stepPackedSlices(src, dst, rows, g.Cols, wpr, lo, hi, 0, wpr)
	}

	var updates int64
	for left := n; left > 0; {
		k := haloDepth(left, g.Rows, ranks, wpr)
		for j := 0; j < k; j++ {
			lane.Begin(nGen)
			if j == 0 {
				lane.Begin(nHalo)
				err := exchangeHalos(c, src, up, down, top, end, k, wpr)
				lane.End(nHalo)
				if err != nil {
					return err
				}
			}
			// Advance the band and, on each neighbor side, the k-1-j
			// ghost rows the window's remaining generations read: its last
			// generation reads one row past the band, each earlier one a
			// row further. Only owned rows count toward the live updates;
			// the neighbor counts its own.
			ghost := 0
			if up >= 0 {
				ghost = k - 1 - j
			}
			step(top-ghost, top)
			updates += step(top, end)
			step(end, end+ghost)
			lane.End(nGen)
			src, dst = dst, src
		}
		left -= k
	}

	// Stats meet in an Allreduce: every rank learns the global total,
	// the root records it.
	total, err := msgpass.Allreduce(c, updates, func(a, b int64) int64 { return a + b })
	if err != nil {
		return err
	}

	// Collect: every rank gathers its final band, which it writes no more,
	// as a view; rank 0 lays the bands end to end in the next generation
	// buffer (promoted to current after the world joins).
	bands, err = msgpass.Gather(c, 0, src[top*wpr:end*wpr])
	if err != nil || rank != 0 {
		return err
	}
	off := 0
	for _, b := range bands {
		off += copy(g.next[off:], b)
	}
	stats.LiveUpdates = total
	stats.Rounds = n
	return nil
}

// exchangeHalos opens a window of depth k: it sends the band's top k owned
// rows (from row top) to the neighbor above and its bottom k (ending at
// row end) to the one below, and fills the k halo rows on each side of the
// band from theirs. Both sends are posted before either receive: with the
// inbox depth bounded in RunCtx the symmetric exchange cannot deadlock,
// and the payloads are copies, so a neighbor may apply them whenever it
// gets around to its own exchange. The neighbor above's bottom rows arrive
// as tagDown, the one below's top rows as tagUp. A rank without neighbors
// (up < 0) exchanges nothing.
func exchangeHalos(c *msgpass.Comm, buf []uint64, up, down, top, end, k, wpr int) error {
	if up < 0 {
		return nil
	}
	if err := msgpass.Send(c, up, distTagUp, append([]uint64(nil), buf[top*wpr:(top+k)*wpr]...)); err != nil {
		return err
	}
	if err := msgpass.Send(c, down, distTagDown, append([]uint64(nil), buf[(end-k)*wpr:end*wpr]...)); err != nil {
		return err
	}
	rows, err := msgpass.Recv[[]uint64](c, up, distTagDown)
	if err != nil {
		return err
	}
	copy(buf[(top-k)*wpr:top*wpr], rows)
	if rows, err = msgpass.Recv[[]uint64](c, down, distTagUp); err != nil {
		return err
	}
	copy(buf[end*wpr:(end+k)*wpr], rows)
	return nil
}
