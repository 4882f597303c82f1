// Command cachesim is the trace-driven cache simulator for the caching
// homeworks: configure an organization, feed it a trace (from stdin as
// "r 0x1234" / "w 0x1238" lines, or a built-in matrix workload), and get
// the per-access table and summary statistics.
//
// Usage:
//
//	cachesim -size 1024 -block 16 -assoc 2 < trace.txt
//	cachesim -workload colmajor -rows 64 -cols 64 -size 1024 -block 64
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cs31/internal/cache"
	"cs31/internal/memhier"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

// maxMatrixElems bounds a built-in workload's rows*cols: the trace holds
// one 16-byte access per element, so the bound is 256 MiB of trace.
const maxMatrixElems = 1 << 24

// checkCache rejects a cache geometry the simulator cannot build: a
// -size, -block or -assoc below 1 is named alone, and the rules of how
// the three combine (cache.Config.Validate) name all three.
func checkCache(cfg cache.Config) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"-size", cfg.SizeBytes}, {"-block", cfg.BlockSize}, {"-assoc", cfg.Assoc}} {
		if f.v < 1 {
			return fmt.Errorf("%s %d below 1", f.name, f.v)
		}
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("-size %d, -block %d, -assoc %d: %w", cfg.SizeBytes, cfg.BlockSize, cfg.Assoc, err)
	}
	return nil
}

// checkMatrix rejects a built-in workload's -rows or -cols below 1, and a
// matrix of more than maxMatrixElems elements. The product is bounded by
// division, so no side overflows it.
func checkMatrix(rows, cols int) error {
	if rows < 1 {
		return fmt.Errorf("-rows %d below 1", rows)
	}
	if cols < 1 {
		return fmt.Errorf("-cols %d below 1", cols)
	}
	if rows > maxMatrixElems/cols {
		return fmt.Errorf("-rows %d by -cols %d exceeds %d elements", rows, cols, maxMatrixElems)
	}
	return nil
}

func run() error {
	size := flag.Int("size", 1024, "total cache size in bytes")
	block := flag.Int("block", 16, "block size in bytes")
	assoc := flag.Int("assoc", 1, "associativity (1 = direct-mapped)")
	write := flag.String("write", "back", "write policy: back or through")
	alloc := flag.String("alloc", "allocate", "write-miss policy: allocate or noallocate")
	repl := flag.String("repl", "lru", "replacement: lru or fifo")
	workload := flag.String("workload", "", "built-in workload: rowmajor or colmajor (otherwise read stdin)")
	rows := flag.Int("rows", 64, "workload matrix rows")
	cols := flag.Int("cols", 64, "workload matrix columns")
	table := flag.Int("table", 0, "print the hit/miss table for the first N accesses")
	flag.Parse()

	cfg := cache.Config{SizeBytes: *size, BlockSize: *block, Assoc: *assoc}
	if err := checkCache(cfg); err != nil {
		return err
	}
	var err error
	cfg.Write, cfg.Alloc, cfg.Repl, err = cache.ParsePolicies(*write, *alloc, *repl)
	if err != nil {
		return err
	}

	var trace []memhier.Access
	switch *workload {
	case "rowmajor", "colmajor":
		if err := checkMatrix(*rows, *cols); err != nil {
			return err
		}
		build := memhier.MatrixTraceRowMajor
		if *workload == "colmajor" {
			build = memhier.MatrixTraceColMajor
		}
		trace = build(0, *rows, *cols, 4)
	case "":
		trace, err = readTrace(os.Stdin)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}

	fmt.Printf("cache: %d bytes, %d-byte blocks, %d-way, %d sets (%v, %v, %v)\n",
		cfg.SizeBytes, cfg.BlockSize, cfg.Assoc, cfg.NumSets(), cfg.Write, cfg.Alloc, cfg.Repl)
	fmt.Printf("address division: %d tag | %d index | %d offset bits\n\n",
		32-cfg.IndexBits()-cfg.OffsetBits(), cfg.IndexBits(), cfg.OffsetBits())

	if *table > 0 {
		out, err := cache.TraceTable(cfg, trace, *table)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}

	c, err := cache.New(cfg)
	if err != nil {
		return err
	}
	// Metric names match the bench harness (BenchmarkCacheStride,
	// BenchmarkCacheLookup report "hit-%"), so simulator output and bench
	// output can be compared side by side.
	stats := c.RunTrace(trace)
	fmt.Printf("accesses    %d\n", stats.Accesses)
	fmt.Printf("hits        %d\n", stats.Hits)
	fmt.Printf("hit-%%       %.2f\n", 100*stats.HitRate())
	fmt.Printf("misses      %d\n", stats.Misses)
	fmt.Printf("miss-%%      %.2f\n", 100*stats.MissRate())
	fmt.Printf("evictions   %d\n", stats.Evictions)
	fmt.Printf("write-backs %d\n", stats.WriteBacks)
	fmt.Printf("mem-reads   %d\n", stats.MemReads)
	fmt.Printf("mem-writes  %d\n", stats.MemWrites)
	return nil
}

func readTrace(f *os.File) ([]memhier.Access, error) {
	var trace []memhier.Access
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want 'r|w address', got %q", lineNo, line)
		}
		addr, err := strconv.ParseUint(fields[1], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad address %q", lineNo, fields[1])
		}
		switch strings.ToLower(fields[0]) {
		case "r", "read", "l", "load":
			trace = append(trace, memhier.R(addr))
		case "w", "write", "s", "store":
			trace = append(trace, memhier.W(addr))
		default:
			return nil, fmt.Errorf("line %d: bad op %q", lineNo, fields[0])
		}
	}
	return trace, sc.Err()
}
