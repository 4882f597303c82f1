package main

import (
	"math"
	"strings"
	"testing"

	"cs31/internal/vm"
)

func TestCheckVM(t *testing.T) {
	for _, c := range []struct {
		frames, tlb int
		pages       uint64
		procs       int
	}{
		{8, 4, 64, 2},
		{1, 0, 1, 0},
		{vm.MaxFrames, vm.MaxTLBEntries, vm.MaxPageEntries, 1},
		{8, 4, 1 << 10, 1 << 10},
	} {
		if err := checkVM(c.frames, c.tlb, c.pages, c.procs); err != nil {
			t.Errorf("checkVM(%d, %d, %d, %d): %v", c.frames, c.tlb, c.pages, c.procs, err)
		}
	}
	// -pages 2^64-1 on the two-process workload used to panic allocating
	// its first page table; the last case would overflow a multiplied bound.
	for _, c := range []struct {
		frames, tlb int
		pages       uint64
		procs       int
		flag        string
	}{
		{0, 4, 64, 2, "-frames 0"},
		{vm.MaxFrames + 1, 4, 64, 2, "-frames 4097"},
		{8, -1, 64, 2, "-tlb -1"},
		{8, vm.MaxTLBEntries + 1, 64, 2, "-tlb 1025"},
		{8, 4, 0, 2, "-pages 0"},
		{8, 4, vm.MaxPageEntries + 1, 1, "-pages 1048577 by 1 distinct pids"},
		{8, 4, 1 << 10, 1<<10 + 1, "-pages 1024 by 1025 distinct pids"},
		{8, 4, math.MaxUint64, 2, "-pages 18446744073709551615"},
	} {
		err := checkVM(c.frames, c.tlb, c.pages, c.procs)
		if err == nil || !strings.Contains(err.Error(), c.flag) || strings.Contains(err.Error(), "\n") {
			t.Errorf("checkVM(%d, %d, %d, %d) = %v, want a one-line error naming %q", c.frames, c.tlb, c.pages, c.procs, err, c.flag)
		}
	}
}
