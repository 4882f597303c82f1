// Command vmsim is the virtual-memory simulator for the VM homeworks: it
// replays a trace of per-process virtual accesses ("pid r|w address" lines
// on stdin, or a built-in two-process workload with context switches) and
// reports page faults, TLB behaviour, and effective access time.
//
// Usage:
//
//	vmsim -pagesize 256 -frames 8 -tlb 4 < trace.txt
//	vmsim -workload twoproc
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cs31/internal/vm"
)

type step struct {
	pid   vm.Pid
	addr  uint64
	write bool
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vmsim:", err)
		os.Exit(1)
	}
}

// checkVM rejects what would make the simulator allocate past labd's
// bounds (vm.MaxFrames and the rest): -frames outside [1, vm.MaxFrames],
// -tlb outside [0, vm.MaxTLBEntries], and -pages below 1 or with page
// tables for procs processes past vm.MaxPageEntries entries in all. The
// product is bounded by division, so no -pages value overflows it.
func checkVM(frames, tlb int, pages uint64, procs int) error {
	if frames < 1 || frames > vm.MaxFrames {
		return fmt.Errorf("-frames %d outside [1, %d]", frames, vm.MaxFrames)
	}
	if tlb < 0 || tlb > vm.MaxTLBEntries {
		return fmt.Errorf("-tlb %d outside [0, %d]", tlb, vm.MaxTLBEntries)
	}
	if pages < 1 {
		return fmt.Errorf("-pages %d below 1", pages)
	}
	if uint64(procs) > vm.MaxPageEntries/pages {
		return fmt.Errorf("-pages %d by %d distinct pids exceeds %d page-table entries", pages, procs, vm.MaxPageEntries)
	}
	return nil
}

func run() error {
	pageSize := flag.Uint64("pagesize", 256, "page size in bytes (power of two)")
	frames := flag.Int("frames", 8, "physical frames")
	tlb := flag.Int("tlb", 4, "TLB entries (0 disables)")
	pages := flag.Uint64("pages", 64, "virtual pages per process")
	workload := flag.String("workload", "", "built-in workload: twoproc (otherwise read stdin)")
	verbose := flag.Bool("v", false, "print every access")
	flag.Parse()

	var steps []step
	switch *workload {
	case "twoproc":
		// Two processes touching overlapping virtual pages with context
		// switches — the VM2 homework scenario.
		for round := 0; round < 4; round++ {
			for i := uint64(0); i < 6; i++ {
				steps = append(steps, step{pid: 1, addr: i * *pageSize})
			}
			for i := uint64(0); i < 6; i++ {
				steps = append(steps, step{pid: 2, addr: i * *pageSize, write: i%2 == 0})
			}
		}
	case "":
		var err error
		steps, err = readSteps(os.Stdin)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}

	pids := map[vm.Pid]bool{}
	for _, s := range steps {
		pids[s.pid] = true
	}
	if err := checkVM(*frames, *tlb, *pages, len(pids)); err != nil {
		return err
	}
	sys, err := vm.New(vm.Config{
		PageSize: *pageSize, NumFrames: *frames, TLBSize: *tlb, NumPages: *pages,
	})
	if err != nil {
		return err
	}
	known := map[vm.Pid]bool{}
	for _, s := range steps {
		if !known[s.pid] {
			if err := sys.AddProcess(s.pid); err != nil {
				return err
			}
			known[s.pid] = true
		}
		if sys.Current() != s.pid {
			if err := sys.Switch(s.pid); err != nil {
				return err
			}
		}
		res, err := sys.Access(s.addr, s.write)
		if err != nil {
			return err
		}
		if *verbose {
			tag := "hit"
			if res.PageFault {
				tag = "PAGE FAULT"
				if res.Evicted {
					tag += fmt.Sprintf(" (evict pid %d page %d", res.EvictedPid, res.EvictedPg)
					if res.WroteBack {
						tag += ", write back"
					}
					tag += ")"
				}
			} else if res.TLBHit {
				tag = "TLB hit"
			}
			fmt.Printf("pid %d vaddr %#06x -> page %d frame %d paddr %#06x  %s\n",
				s.pid, s.addr, res.Page, res.Frame, res.PhysAddr, tag)
		}
	}

	st := sys.Stats()
	fmt.Printf("\naccesses         %d\n", st.Accesses)
	fmt.Printf("page faults      %d (%.2f%%)\n", st.PageFaults, 100*st.FaultRate())
	fmt.Printf("TLB hits         %d (%.2f%%)\n", st.TLBHits, 100*st.TLBHitRate())
	fmt.Printf("evictions        %d\n", st.Evictions)
	fmt.Printf("dirty writebacks %d\n", st.WriteBacks)
	fmt.Printf("context switches %d\n", sys.ContextSwitches)
	fmt.Printf("effective access time: %.1f ns (RAM 100ns, fault 8ms)\n",
		sys.EffectiveAccessTime(100, 8_000_000))
	return nil
}

func readSteps(f *os.File) ([]step, error) {
	var steps []step
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("line %d: want 'pid r|w address', got %q", lineNo, line)
		}
		pid, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad pid %q", lineNo, fields[0])
		}
		addr, err := strconv.ParseUint(fields[2], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad address %q", lineNo, fields[2])
		}
		write := false
		switch strings.ToLower(fields[1]) {
		case "r":
		case "w":
			write = true
		default:
			return nil, fmt.Errorf("line %d: bad op %q", lineNo, fields[1])
		}
		steps = append(steps, step{pid: vm.Pid(pid), addr: addr, write: write})
	}
	return steps, sc.Err()
}
