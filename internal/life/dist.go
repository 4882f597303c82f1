package life

import (
	"context"
	"time"

	"cs31/internal/msgpass"
	"cs31/internal/obs"
	"cs31/internal/pthread"
)

// Message tags of the halo exchange. They name the direction the halo row
// travels, so the two rows a rank exchanges with one neighbor (P = 2 under
// torus wrapping makes the up and down neighbor the same rank) never
// cross-match.
const (
	distTagUp   = 1 // a rank's top owned row, sent to the neighbor above
	distTagDown = 2 // a rank's bottom owned row, sent to the neighbor below
)

// DistRunner is the dist engine: it advances a grid with message-passing
// ranks, the distributed-memory sibling of ParallelRunner. The grid is
// row-block sharded across a msgpass world: each rank owns a contiguous
// band of rows in a private local buffer, exchanges one-row halos with its
// neighbor ranks by Send/Recv each generation, and the per-rank
// live-update counts meet in an Allreduce. No rank ever writes another
// rank's memory; every byte that crosses a shard boundary is a message,
// and the world's counters price exactly that traffic. Bands and halo rows
// travel as packed []uint64 words, so a halo row costs ceil(cols/64)*8
// bytes on the wire (512 bytes at cols=4096), and each band advances
// through the SWAR kernel.
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

// distNeighbors returns the ranks above and below a rank, or -1 where no
// other rank borders it: at a non-torus boundary, and on both sides of a
// one-rank torus. The kernel synthesizes the ghost row of such an edge
// from the rank's own buffer, exactly as it does on the full grid.
func distNeighbors(rank, ranks int, mode EdgeMode) (up, down int) {
	switch {
	case ranks == 1:
		return -1, -1
	case mode == Torus:
		return (rank + ranks - 1) % ranks, (rank + 1) % ranks
	case rank == ranks-1:
		return rank - 1, -1
	}
	return rank - 1, rank + 1
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
// each generation a rank sends its top/bottom owned rows to its neighbor
// ranks (tagUp/tagDown), receives theirs into its halo rows, and advances
// its band with the SWAR kernel; after the last generation the ranks
// Allreduce the live-update counts and Gather the bands on rank 0.
// Neighbor ranks wrap into a ring under Torus and fall off the ends
// otherwise. A rank keeps a halo row only toward a neighbor rank: every
// other edge (a non-torus boundary, or both sides of a one-rank torus) is
// the kernel's ghost row for the grid's edge mode, as on the full grid.
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
	// exchanging halos its inbox holds at most 8 messages: two generations
	// of halo rows from each of its two neighbors (a neighbor cannot get a
	// third generation ahead without this rank's halo), plus one reduce
	// message from each of up to four collective-tree children that have
	// already reached the closing Allreduce.
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
	up, down := distNeighbors(rank, ranks, g.Mode)

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

	// Local shard: a halo row above the band if a rank borders it there,
	// the band's owned rows [top, top+band), and a halo row below if a rank
	// borders it there. Halo rows are written only from received messages.
	band, top := len(block)/wpr, 0
	if up >= 0 {
		top = 1
	}
	rows := top + band
	if down >= 0 {
		rows++
	}
	src := make([]uint64, rows*wpr)
	dst := make([]uint64, rows*wpr)
	copy(src[top*wpr:], block)
	first, last := top*wpr, (top+band-1)*wpr // owned edge rows' offsets

	var updates int64
	for gen := 0; gen < n; gen++ {
		lane.Begin(nGen)
		lane.Begin(nHalo)
		// Post both sends before either receive: with the inbox depth
		// bounded in RunCtx the symmetric exchange cannot deadlock, and the
		// payloads are copies, so a neighbor may apply them whenever it
		// gets around to its own exchange. Then fill the halos: the
		// neighbor above's bottom row arrives as tagDown, the one below's
		// top row as tagUp.
		if up >= 0 {
			if err := msgpass.Send(c, up, distTagUp, append([]uint64(nil), src[first:first+wpr]...)); err != nil {
				return err
			}
		}
		if down >= 0 {
			if err := msgpass.Send(c, down, distTagDown, append([]uint64(nil), src[last:last+wpr]...)); err != nil {
				return err
			}
		}
		if up >= 0 {
			row, err := msgpass.Recv[[]uint64](c, up, distTagDown)
			if err != nil {
				return err
			}
			copy(src[:wpr], row)
		}
		if down >= 0 {
			row, err := msgpass.Recv[[]uint64](c, down, distTagUp)
			if err != nil {
				return err
			}
			copy(src[last+wpr:], row)
		}
		lane.End(nHalo)
		updates += stepPackedSlices(src, dst, g.zeroRow, g.oneRow, rows, g.Cols, wpr, g.Mode, top, top+band, 0, wpr)
		lane.End(nGen)
		src, dst = dst, src
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
	bands, err = msgpass.Gather(c, 0, src[first:last+wpr])
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
