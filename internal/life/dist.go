package life

import (
	"context"
	"fmt"
	"time"

	"cs31/internal/msgpass"
	"cs31/internal/obs"
	"cs31/internal/pthread"
)

// Message tags of the distributed runner's little protocol. tagUp/tagDown
// name the direction the halo row travels, so the two rows a rank exchanges
// with one neighbor (P = 2 under torus wrapping makes the up and down
// neighbor the same rank) never cross-match.
const (
	distTagBlock = 0 // initial row-block distribution and final gather
	distTagUp    = 1 // a rank's top owned row, sent to the neighbor above
	distTagDown  = 2 // a rank's bottom owned row, sent to the neighbor below
)

// DistRunner is the dist engine: it advances a grid with message-passing
// ranks, the distributed-memory sibling of ParallelRunner. The grid is
// row-block sharded across a msgpass world: each rank owns a contiguous
// band of rows in a private local buffer, exchanges one-row halos with its
// neighbors by Send/Recv each generation, and the per-rank live-update
// counts meet in an Allreduce. No rank ever touches another rank's memory;
// every byte that crosses a shard boundary is a message, and the world's
// counters price exactly that traffic. Bands and halo rows travel as
// packed []uint64 words, so a halo row costs ceil(cols/64)*8 bytes on the
// wire (512 bytes at cols=4096), and each band advances through the SWAR
// kernel.
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
	// msgpass.WithTrace), so a run renders halo traffic, stragglers, and
	// the closing allreduce in chrome://tracing or Perfetto.
	Trace *obs.Trace

	// CommStats holds the world's traffic counters after RunCtx returns,
	// a failed run's partial traffic included.
	CommStats msgpass.WorldStats

	chaos    *msgpass.Chaos // Engine.Chaos
	watchdog time.Duration  // Engine.Watchdog
}

// distNeighbors returns the ranks above and below a rank (-1 marks a
// non-torus boundary whose halo is synthesized locally).
func distNeighbors(rank, ranks int, mode EdgeMode) (up, down int) {
	up, down = rank-1, rank+1
	if rank == 0 {
		up = -1
		if mode == Torus {
			up = ranks - 1
		}
	}
	if rank == ranks-1 {
		down = -1
		if mode == Torus {
			down = 0
		}
	}
	return up, down
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
// Protocol per rank: receive your row block from rank 0 (tagBlock), then
// each generation send your top/bottom owned rows to your neighbors
// (tagUp/tagDown), receive theirs into your halo rows, and advance your
// band with the SWAR kernel; after the last generation, Allreduce the
// live-update counts and send your block back to rank 0. Neighbor
// relationships wrap into a ring under Torus and fall off the ends
// otherwise: a DeadEdges boundary halo stays all-dead, an AliveEdges one is
// pinned all-live, and a MirrorEdges one is refreshed each generation with
// the rank's own edge row (the reflection). A rank that is its own
// neighbor (a single-rank torus) copies its edge rows locally instead of
// messaging itself.
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
	rows, cols, mode, wpr := g.Rows, g.Cols, g.Mode, g.wpr
	lane, nGen, nHalo := dr.traceHandles(c)
	rank := c.Rank()
	lo, hi := pthread.BlockRange(rank, ranks, rows)
	band := hi - lo

	// Local shard: band rows plus one halo row above and below. Halo
	// rows are index 0 and band+1; owned rows are 1..band. Both parity
	// buffers start zeroed, which is exactly the all-dead halo DeadEdges
	// boundary ranks need forever (the kernel never writes halo rows).
	src := make([]uint64, (band+2)*wpr)
	dst := make([]uint64, (band+2)*wpr)
	zero := make([]uint64, wpr)
	one := liveRow(cols)

	// Distribute: rank 0 owns the grid and mails every other rank its
	// band; its own band is a local copy.
	if rank == 0 {
		for r := 1; r < ranks; r++ {
			rlo, rhi := pthread.BlockRange(r, ranks, rows)
			block := append([]uint64(nil), g.cells[rlo*wpr:rhi*wpr]...)
			if err := msgpass.Send(c, r, distTagBlock, block); err != nil {
				return err
			}
		}
		copy(src[wpr:(band+1)*wpr], g.cells[lo*wpr:hi*wpr])
	} else {
		block, err := msgpass.Recv[[]uint64](c, 0, distTagBlock)
		if err != nil {
			return err
		}
		if len(block) != band*wpr {
			return fmt.Errorf("rank %d: block of %d words, want %d", rank, len(block), band*wpr)
		}
		copy(src[wpr:(band+1)*wpr], block)
	}

	up, down := distNeighbors(rank, ranks, mode)
	// An AliveEdges boundary halo is pinned all-live in both parity buffers
	// once: the kernel never writes halo rows and no message targets them.
	if mode == AliveEdges {
		if up < 0 {
			copy(src[:wpr], one)
			copy(dst[:wpr], one)
		}
		if down < 0 {
			copy(src[(band+1)*wpr:], one)
			copy(dst[(band+1)*wpr:], one)
		}
	}

	var updates int64
	for gen := 0; gen < n; gen++ {
		lane.Begin(nGen)
		lane.Begin(nHalo)
		top := src[wpr : 2*wpr]                     // first owned row
		bot := src[band*wpr : (band+1)*wpr]         // last owned row
		haloTop := src[:wpr]                        // row lo-1's image
		haloBot := src[(band+1)*wpr : (band+2)*wpr] // row hi's image
		if up == rank {                             // single-rank torus: both neighbors are us
			copy(haloTop, bot)
			copy(haloBot, top)
		} else {
			// Post both sends before either receive: with the inbox depth
			// bounded in RunCtx the symmetric exchange cannot deadlock, and
			// the payloads are copies, so a neighbor may apply them
			// whenever it gets around to its own exchange. Then fill the
			// halos — the neighbor above's bottom row arrives as tagDown,
			// the one below's top row as tagUp.
			if up >= 0 {
				if err := msgpass.Send(c, up, distTagUp, append([]uint64(nil), top...)); err != nil {
					return err
				}
			}
			if down >= 0 {
				if err := msgpass.Send(c, down, distTagDown, append([]uint64(nil), bot...)); err != nil {
					return err
				}
			}
			if up >= 0 {
				row, err := msgpass.Recv[[]uint64](c, up, distTagDown)
				if err != nil {
					return err
				}
				copy(haloTop, row)
			}
			if down >= 0 {
				row, err := msgpass.Recv[[]uint64](c, down, distTagUp)
				if err != nil {
					return err
				}
				copy(haloBot, row)
			}
		}
		// A MirrorEdges boundary reflects the rank's own edge row into the
		// halo; the reflection changes every generation, so refresh it on
		// the current source parity.
		if mode == MirrorEdges {
			if up < 0 {
				copy(haloTop, top)
			}
			if down < 0 {
				copy(haloBot, bot)
			}
		}
		lane.End(nHalo)
		// The kernel over owned rows only. The local buffer is band+2 rows
		// tall and the range [1, band+1) never reaches rows 0 or band+1 as
		// a *computed* row, so packedRowIn never synthesizes a ghost — all
		// vertical neighbor data comes from the exchanged or locally
		// synthesized halos, while column edge behavior (mode) works
		// exactly as on the full grid.
		updates += stepPackedSlices(src, dst, zero, one, band+2, cols, wpr, mode, 1, band+1, 0, wpr)
		lane.End(nGen)
		src, dst = dst, src
	}

	// Stats meet in an Allreduce: every rank learns the global total,
	// the root records it.
	total, err := msgpass.Allreduce(c, updates, func(a, b int64) int64 { return a + b })
	if err != nil {
		return err
	}

	// Collect: everyone mails the final band home; rank 0 assembles the
	// next generation buffer (promoted to current after the world joins).
	if rank == 0 {
		copy(g.next[lo*wpr:hi*wpr], src[wpr:(band+1)*wpr])
		for r := 1; r < ranks; r++ {
			rlo, rhi := pthread.BlockRange(r, ranks, rows)
			block, err := msgpass.Recv[[]uint64](c, r, distTagBlock)
			if err != nil {
				return err
			}
			if len(block) != (rhi-rlo)*wpr {
				return fmt.Errorf("rank 0: block from %d has %d words, want %d", r, len(block), (rhi-rlo)*wpr)
			}
			copy(g.next[rlo*wpr:rhi*wpr], block)
		}
		stats.LiveUpdates = total
		stats.Rounds = n
	} else {
		if err := msgpass.Send(c, 0, distTagBlock, append([]uint64(nil), src[wpr:(band+1)*wpr]...)); err != nil {
			return err
		}
	}
	return nil
}
