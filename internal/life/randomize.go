package life

// Board seeding. Randomize draws exactly the board of math/rand's
// per-cell Float64 loop (see its doc) without calling Float64 per cell:
//
//   - math/rand's Source is an additive lagged-Fibonacci generator whose
//     state is its last 607 outputs, so after 607 draws its stream
//     continues as x[n] = x[n-607] + x[n-273]. Float64 reads only the low
//     63 bits (Int63), which obey the same recurrence mod 2^63. The first
//     607 draws come from math/rand itself; the rest come from a ring of
//     the last 607, refilled in place.
//   - Float64 is float64(x)/2^63, monotone in x, so "Float64() < d" is
//     "x < t" for one integer threshold t per call (liveThreshold).
//   - Float64 redraws an x whose quotient rounds to 1.0 (x >= 2^63-512),
//     and so does this path.
//
// Each 64-cell word is built in a register from contiguous slices of the
// ring, a subtract and two shifts per cell: (x-t)>>63 is 1 iff x < t,
// for 63-bit x and t <= 2^63. Only a slice that holds a redraw is drawn
// again cell by cell.

import "math/rand"

const (
	lfgLen    = 607               // long lag: math/rand's Source state is its last 607 outputs
	lfgTap    = 273               // short lag: x[n] = x[n-607] + x[n-273]
	int63Mask = 1<<63 - 1         // the bits Int63 keeps
	redrawMin = 1<<63 - 512       // least Int63 whose Float64 rounds to 1.0; math/rand redraws it
	redrawAdd = 1<<63 - redrawMin // x+redrawAdd sets bit 63 iff x >= redrawMin
)

// Randomize fills the grid from a seeded RNG with the given live density.
// The board is exactly the one math/rand's per-cell loop draws: cell
// (r, c) is live iff the (r*Cols+c)-th rng.Float64() of
// rand.New(rand.NewSource(seed)) is below density. labd responses,
// benchmark metrics and tests pin boards by seed, so that must not
// change. A NaN or non-positive density gives an empty board, and a
// density of 1 or more a full one.
func (g *Grid) Randomize(seed int64, density float64) {
	g.randomizeFrom(rand.NewSource(seed), density)
}

// randomizeFrom fills the grid from src's Int63 stream as Float64 would
// read it. After its first lfgLen draws, src's stream must continue
// math/rand's recurrence, as every rand.NewSource does.
func (g *Grid) randomizeFrom(src rand.Source, density float64) {
	t := liveThreshold(density)
	var s lfgStream
	for j := range s.ring {
		s.ring[j] = uint64(src.Int63())
	}
	lastLanes := (g.Cols-1)&63 + 1
	for r := 0; r < g.Rows; r++ {
		row := g.cells[r*g.wpr : (r+1)*g.wpr]
		for w := range row {
			lanes := 64
			if w == len(row)-1 {
				lanes = lastLanes
			}
			row[w] = s.word(lanes, t)
		}
	}
}

// liveThreshold returns the least 63-bit x with !(float64(x)/2^63 < density),
// or 2^63 if there is none, so a draw x is live iff x < t. A NaN or
// non-positive density gives 0: no draw is live.
func liveThreshold(density float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < density {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lfgStream continues math/rand's stream, 63 bits per draw.
type lfgStream struct {
	ring [lfgLen]uint64 // the next lfgLen draws, in stream order
	i    int            // index of the next unread draw in ring
}

// word draws one cell per lane for lanes 0..lanes-1 and returns them
// packed: lane b is live iff its draw is below t. Lanes from lanes up
// stay zero. Each run of the ring the word covers (two runs if it
// straddles a refill) is packed in one pass; a run that holds a redraw is
// drawn again cell by cell from its first cell.
func (s *lfgStream) word(lanes int, t uint64) uint64 {
	var word uint64
	for b := 0; b < lanes; {
		if s.i == lfgLen {
			s.refill()
		}
		n := min(lanes-b, lfgLen-s.i)
		var run, redraw uint64
		for k, x := range s.ring[s.i : s.i+n] {
			run |= (x - t) >> 63 << (uint(k) & 63)
			redraw |= x + redrawAdd
		}
		if redraw>>63 != 0 {
			for ; b < lanes; b++ {
				word |= (s.next() - t) >> 63 << (uint(b) & 63)
			}
			return word
		}
		word |= run << (uint(b) & 63)
		s.i += n
		b += n
	}
	return word
}

// next returns the draw Float64 would use for one cell, redrawing past
// any x >= redrawMin.
func (s *lfgStream) next() uint64 {
	for {
		if s.i == lfgLen {
			s.refill()
		}
		x := s.ring[s.i]
		s.i++
		if x < redrawMin {
			return x
		}
	}
}

// refill replaces the ring with the next lfgLen draws. New draw j is old
// draw j (607 back) plus draw j-273: old draw j+334 for j < 273, else the
// new draw j-273 the first loop or earlier in the second already wrote.
func (s *lfgStream) refill() {
	v := &s.ring
	for j := 0; j < lfgTap; j++ {
		v[j] = (v[j] + v[j+lfgLen-lfgTap]) & int63Mask
	}
	for j := lfgTap; j < lfgLen; j++ {
		v[j] = (v[j] + v[j-lfgTap]) & int63Mask
	}
	s.i = 0
}
