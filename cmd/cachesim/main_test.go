package main

import (
	"math"
	"strings"
	"testing"

	"cs31/internal/cache"
)

// refused fails t unless err is a one-line error naming want.
func refused(t *testing.T, call string, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
		t.Errorf("%s = %v, want a one-line error naming %q", call, err, want)
	}
}

func TestCheckCache(t *testing.T) {
	for _, c := range []cache.Config{
		{SizeBytes: 1024, BlockSize: 16, Assoc: 1},
		{SizeBytes: 64, BlockSize: 16, Assoc: 4},
		{SizeBytes: 32768, BlockSize: 64, Assoc: 8},
	} {
		if err := checkCache(c); err != nil {
			t.Errorf("checkCache(%+v): %v", c, err)
		}
	}
	// The first three used to divide by zero in NumSets or print a
	// negative set count in the banner before anything checked them.
	for _, c := range []struct {
		cfg  cache.Config
		flag string
	}{
		{cache.Config{SizeBytes: 1024, BlockSize: 0, Assoc: 1}, "-block 0"},
		{cache.Config{SizeBytes: 1024, BlockSize: 16, Assoc: 0}, "-assoc 0"},
		{cache.Config{SizeBytes: -5, BlockSize: 16, Assoc: 1}, "-size -5"},
		{cache.Config{SizeBytes: 1024, BlockSize: 24, Assoc: 1}, "-block 24"},
		{cache.Config{SizeBytes: 1000, BlockSize: 16, Assoc: 1}, "-size 1000"},
		// A -block times -assoc that wraps to 0 divided by zero, and
		// 131,072 lines is past cache.MaxLines.
		{cache.Config{SizeBytes: 1024, BlockSize: 1 << 32, Assoc: 1 << 32}, "-block 4294967296, -assoc 4294967296"},
		{cache.Config{SizeBytes: 8388608, BlockSize: 64, Assoc: 1}, "-size 8388608"},
	} {
		refused(t, "checkCache", checkCache(c.cfg), c.flag)
	}
}

func TestCheckMatrix(t *testing.T) {
	for _, c := range [][2]int{{2, 2}, {64, 64}, {1, maxMatrixElems}, {maxMatrixElems, 1}} {
		if err := checkMatrix(c[0], c[1]); err != nil {
			t.Errorf("checkMatrix(%d, %d): %v", c[0], c[1], err)
		}
	}
	// -rows -1 used to panic in makeslice; the last two would overflow a
	// multiplied bound.
	for _, c := range []struct {
		rows, cols int
		flag       string
	}{
		{-1, 4, "-rows -1"},
		{2, 0, "-cols 0"},
		{0, 0, "-rows 0"},
		{1 << 13, 1 << 12, "-rows 8192 by -cols 4096"},
		{math.MaxInt, 2, "-cols 2"},
		{2, math.MaxInt, "-rows 2"},
	} {
		refused(t, "checkMatrix", checkMatrix(c.rows, c.cols), c.flag)
	}
}
