package life

// Bit-packed board representation and SWAR generation kernel: 64 cells per
// uint64 word, one word of lanes advanced per step of the inner loop.
//
// Layout: row r occupies words cells[r*wpr : (r+1)*wpr] with wpr =
// ceil(Cols/64); bit j of word w is the cell in column w*64+j (LSB = lowest
// column). The last word of a row has Cols&63 valid lanes when Cols is not
// a multiple of 64; its slack lanes are ALWAYS zero — Set, Randomize, and
// the kernel's edge-word mask all maintain the invariant, and every shifted
// neighbor gather relies on it.
//
// Neighbor counting is branch-free boolean algebra. For one output word the
// kernel gathers nine aligned masks — the three source rows (up, current,
// down; ghost rows synthesized per edge mode), each in three horizontal
// alignments (west neighbor, center, east neighbor; ghost columns OR'd into
// the row-edge words) — and adds them with bitwise full-adder chains into
// three bit planes n0/n1/n2 (1s, 2s, 4s). The plane arithmetic saturates
// the one overflow case (neighbor count 8 is represented as 4), which is
// harmless because both counts mean death. The birth/survival rule then
// resolves without a single per-cell branch:
//
//	next = n1 & ~n2 & (n0 | current)
//
// i.e. alive next iff the count is exactly 3, or exactly 2 with the cell
// already live. Live-update statistics come back for free as
// bits.OnesCount64(next ^ current) per word.

import "math/bits"

// wordsPerRow returns the packed row stride for a given width.
func wordsPerRow(cols int) int { return (cols + 63) >> 6 }

// lastWordMask is the valid-lane mask of a row's final word.
func lastWordMask(cols int) uint64 {
	if rem := uint(cols) & 63; rem != 0 {
		return (uint64(1) << rem) - 1
	}
	return ^uint64(0)
}

// liveRow returns an all-live packed row of the given width: the ghost row
// AliveEdges substitutes for out-of-bounds rows, slack lanes kept zero.
func liveRow(cols int) []uint64 {
	row := make([]uint64, wordsPerRow(cols))
	for i := range row {
		row[i] = ^uint64(0)
	}
	row[len(row)-1] = lastWordMask(cols)
	return row
}

// packedRowIn returns packed row r, synthesizing the mode's ghost row when r
// is out of bounds: the wrapped row under Torus, the all-dead row under
// DeadEdges, the all-live row under AliveEdges, and the clamped edge row
// under MirrorEdges. Ghost rows are ready-made buffers (zeroRow, oneRow) or
// clamped/wrapped views of the board, so the call allocates nothing.
func packedRowIn(p, zeroRow, oneRow []uint64, rows, wpr int, mode EdgeMode, r int) []uint64 {
	if r < 0 || r >= rows {
		switch mode {
		case Torus:
			if r < 0 {
				r = rows - 1
			} else {
				r = 0
			}
		case DeadEdges:
			return zeroRow
		case AliveEdges:
			return oneRow
		case MirrorEdges:
			r = clamp(r, rows)
		}
	}
	base := r * wpr
	return p[base : base+wpr]
}

// packedGhostCols returns the one-bit ghost columns flanking a packed row:
// west is the cell at column -1, east the cell at column cols (both in lane
// 0 of the returned words). Under Torus they wrap to the row's far ends,
// under MirrorEdges they clamp onto the row's own edge cells, and the
// dead/alive modes are constants. lastLane is (cols-1)&63, the valid lane
// index of the row's final word.
func packedGhostCols(row []uint64, mode EdgeMode, lastLane uint) (west, east uint64) {
	switch mode {
	case Torus:
		return row[len(row)-1] >> lastLane & 1, row[0] & 1
	case DeadEdges:
		return 0, 0
	case AliveEdges:
		return 1, 1
	default: // MirrorEdges
		return row[0] & 1, row[len(row)-1] >> lastLane & 1
	}
}

// stepPackedSlices computes the next generation for rows [loRow, hiRow) ×
// words [loW, hiW) of src into dst and returns how many cells changed
// state. It is the packed hot kernel shared by the serial engine, the
// ParallelRunner tiles, and the DistRunner bands. Tiles split on word
// boundaries: an output word reads only its own row triple (plus the
// adjacent words for the shifted alignments) from the read-only source
// parity buffer, so concurrent tiles never write-share a word. Allocates
// nothing.
func stepPackedSlices(src, dst, zeroRow, oneRow []uint64, rows, cols, wpr int, mode EdgeMode, loRow, hiRow, loW, hiW int) int64 {
	if loRow >= hiRow || loW >= hiW {
		return 0
	}
	lastLane := uint(cols-1) & 63
	lastMask := lastWordMask(cols)
	var changed int64
	for r := loRow; r < hiRow; r++ {
		base := r * wpr
		cur := src[base : base+wpr]
		out := dst[base : base+wpr]
		up := packedRowIn(src, zeroRow, oneRow, rows, wpr, mode, r-1)
		down := packedRowIn(src, zeroRow, oneRow, rows, wpr, mode, r+1)
		// Ghost columns are per-row: a ghost row's own ghost corners come
		// from that row (e.g. the torus corner is the wrapped row's far
		// cell), matching stepReference's independent row/column mapping
		// exactly.
		uw, ue := packedGhostCols(up, mode, lastLane)
		cw, ce := packedGhostCols(cur, mode, lastLane)
		dw, de := packedGhostCols(down, mode, lastLane)
		for w := loW; w < hiW; w++ {
			uc, cc, dc := up[w], cur[w], down[w]
			// West-aligned neighbors: lane j receives column j-1. The low
			// lane takes the previous word's top bit, or the ghost column
			// at the row's west edge.
			var ul, cl, dl uint64
			if w > 0 {
				ul = uc<<1 | up[w-1]>>63
				cl = cc<<1 | cur[w-1]>>63
				dl = dc<<1 | down[w-1]>>63
			} else {
				ul = uc<<1 | uw
				cl = cc<<1 | cw
				dl = dc<<1 | dw
			}
			// East-aligned neighbors: lane j receives column j+1. The top
			// valid lane takes the next word's low bit, or the ghost column
			// at the row's east edge (slack lanes above it are zero by
			// invariant, so the OR lands on clean bits).
			var ur, cr, dr uint64
			if w < wpr-1 {
				ur = uc>>1 | up[w+1]<<63
				cr = cc>>1 | cur[w+1]<<63
				dr = dc>>1 | down[w+1]<<63
			} else {
				ur = uc>>1 | ue<<lastLane
				cr = cc>>1 | ce<<lastLane
				dr = dc>>1 | de<<lastLane
			}
			// Full-adder chains. Row triples first: a (up row) and b (down
			// row) are 2-bit sums of three lanes; c (current row) sums only
			// the two horizontal neighbors — the center cell is not its own
			// neighbor.
			a0 := ul ^ uc ^ ur
			a1 := (ul & uc) | (ur & (ul ^ uc))
			b0 := dl ^ dc ^ dr
			b1 := (dl & dc) | (dr & (dl ^ dc))
			c0 := cl ^ cr
			c1 := cl & cr
			// Combine the three partial sums into planes n0 (1s), n1 (2s),
			// n2 (4s). k0 carries from the ones plane; k1/k2 are the twos
			// plane's carries, OR'd into n2 — their only simultaneous case
			// represents count 8 as 4, dead either way.
			n0 := a0 ^ b0 ^ c0
			k0 := (a0 & b0) | (c0 & (a0 ^ b0))
			s := a1 ^ b1 ^ c1
			k1 := (a1 & b1) | (c1 & (a1 ^ b1))
			n1 := s ^ k0
			k2 := s & k0
			n2 := k1 | k2
			next := n1 &^ n2 & (n0 | cc)
			if w == wpr-1 {
				next &= lastMask
			}
			out[w] = next
			changed += int64(bits.OnesCount64(next ^ cc))
		}
	}
	return changed
}

// stepPackedBlock runs the SWAR kernel over the grid's own parity buffers.
func (g *Grid) stepPackedBlock(loRow, hiRow, loW, hiW int) int64 {
	return stepPackedSlices(g.cells, g.next, g.zeroRow, g.oneRow, g.Rows, g.Cols, g.wpr, g.Mode, loRow, hiRow, loW, hiW)
}
