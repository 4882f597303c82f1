//go:build !amd64

package life

// hasVector is false: this architecture has no vector pass, and the
// scalar kernel runs every word.
const hasVector = false

// vectorRun is never called where hasVector is false.
func vectorRun(up, cur, down, out []uint64, w, n int) int64 {
	panic("life: no vector pass on this architecture")
}
