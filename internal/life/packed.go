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
// Neighbor counting is branch-free boolean algebra on column sums. Each
// word column's vertical sum V = up+current+down is formed once, as two
// bit planes (1s, 2s), and rolled along the row in registers, because a
// column's sum is shared by its west, center and east neighbors. For one
// output word the count is
//
//	N = west(V) + P + east(V),   P = up + down
//
// where west/east are the neighbor columns' V planes shifted one lane,
// taking the adjacent word's edge bit or, at the row's ends, the edge
// mode's summed ghost column. Two full adders give N's 1s bit x0, its 2s
// bit t and a carry k worth 4, and the birth/survival rule resolves
// without a single per-cell branch:
//
//	next = t &^ k & (x0 | current)
//
// i.e. alive next iff the count is exactly 3, or exactly 2 with the cell
// already live: about 40 integer ops per 64 cells. Live-update statistics
// come back for free as bits.OnesCount64(next ^ current) per word.

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

// colSum returns the vertical sum up+cur+down of one word column, lane by
// lane, as two bit planes: 1s and 2s (the sum is at most 3).
func colSum(u, c, d uint64) (v0, v1 uint64) {
	p0 := u ^ d
	return p0 ^ c, u&d | p0&c
}

// fullAdd adds three bit planes lane by lane into a sum and a carry plane.
func fullAdd(a, b, c uint64) (sum, carry uint64) {
	x := a ^ b
	return x ^ c, a&b | x&c
}

// lifeWord returns the next state of one word from its own column (u, c,
// d: the up, current and down rows) and the column sums of its west and
// east neighbors (w0/w1, e0/e1), already shifted into lane alignment.
// The neighbor count is N = west + (u+d) + east. The 1s planes add to the
// count's 1s bit x0 and a carry k0; the 2s planes add to t1 and a carry k
// worth 4. The count's 2s bit is t = t1^k0, and N is 2 or 3 exactly when
// t is set and k is not: a set t rules out t1&k0, the other way to reach
// 4. N = 8 reads as k, so nothing wraps.
func lifeWord(u, c, d, w0, w1, e0, e1 uint64) uint64 {
	x0, k0 := fullAdd(w0, u^d, e0)
	t1, k := fullAdd(w1, u&d, e1)
	t := t1 ^ k0
	return t &^ k & (x0 | c)
}

// stepPackedSlices computes the next generation for rows [loRow, hiRow) ×
// words [loW, hiW) of src into dst and returns how many cells changed
// state. It is the packed hot kernel shared by the serial engine, the
// ParallelRunner tiles, and the DistRunner bands. Tiles split on word
// boundaries: an output word reads only its own row triple and the column
// sums of the adjacent words from the read-only source parity buffer, so
// concurrent tiles never write-share a word. Allocates nothing.
func stepPackedSlices(src, dst, zeroRow, oneRow []uint64, rows, cols, wpr int, mode EdgeMode, loRow, hiRow, loW, hiW int) int64 {
	if loRow >= hiRow || loW >= hiW {
		return 0
	}
	lastLane := uint(cols-1) & 63
	lastMask := lastWordMask(cols)
	// Words [loW, end) have an east neighbor word. The row's last word,
	// when the tile holds it, takes the east ghost column after the loop.
	end := min(hiW, wpr-1)
	var changed int64
	for r := loRow; r < hiRow; r++ {
		base := r * wpr
		cur := src[base : base+wpr]
		out := dst[base : base+wpr]
		up := packedRowIn(src, zeroRow, oneRow, rows, wpr, mode, r-1)[:wpr]
		down := packedRowIn(src, zeroRow, oneRow, rows, wpr, mode, r+1)[:wpr]
		// Ghost columns are per-row: a ghost row's own ghost corners come
		// from that row (e.g. the torus corner is the wrapped row's far
		// cell), matching stepReference's independent row/column mapping
		// exactly.
		uw, ue := packedGhostCols(up, mode, lastLane)
		cw, ce := packedGhostCols(cur, mode, lastLane)
		dw, de := packedGhostCols(down, mode, lastLane)
		// l0/l1 is the column sum west of word w, whose lane 63 neighbors
		// lane 0: the previous word's, or at the row's west edge the
		// summed ghost column. v0/v1 is word w's own, rolled along the row
		// so each column is summed once.
		var l0, l1 uint64
		if loW > 0 {
			l0, l1 = colSum(up[loW-1], cur[loW-1], down[loW-1])
		} else {
			l0, l1 = colSum(uw<<63, cw<<63, dw<<63)
		}
		v0, v1 := colSum(up[loW], cur[loW], down[loW])
		w := loW
		for ; w < end; w++ {
			n0, n1 := colSum(up[w+1], cur[w+1], down[w+1])
			next := lifeWord(up[w], cur[w], down[w], v0<<1|l0>>63, v1<<1|l1>>63, v0>>1|n0<<63, v1>>1|n1<<63)
			out[w] = next
			changed += int64(bits.OnesCount64(next ^ cur[w]))
			l0, l1, v0, v1 = v0, v1, n0, n1
		}
		if w < hiW {
			// The row's last word: its east neighbor of lane lastLane is
			// the summed east ghost column. Slack lanes above lastLane
			// are zero by invariant, so the OR lands on clean bits, and
			// the mask clears what the west shift carried into them.
			e0, e1 := colSum(ue, ce, de)
			next := lifeWord(up[w], cur[w], down[w], v0<<1|l0>>63, v1<<1|l1>>63, v0>>1|e0<<lastLane, v1>>1|e1<<lastLane) & lastMask
			out[w] = next
			changed += int64(bits.OnesCount64(next ^ cur[w]))
		}
	}
	return changed
}

// stepPackedBlock runs the SWAR kernel over the grid's own parity buffers.
func (g *Grid) stepPackedBlock(loRow, hiRow, loW, hiW int) int64 {
	return stepPackedSlices(g.cells, g.next, g.zeroRow, g.oneRow, g.Rows, g.Cols, g.wpr, g.Mode, loRow, hiRow, loW, hiW)
}
