// Package vm simulates single-level paged virtual memory as CS 31 teaches
// it: per-process page tables, virtual-to-physical translation, page faults
// with LRU frame replacement, dirty-page write-back, context switches, a
// TLB that caches translations (flushed on context switch), and the
// effective-memory-access-time model. The "Virtual memory 1/2" homeworks
// trace exactly the state this package exposes.
package vm

import (
	"fmt"
	"math/bits"
)

// PTE is one page table entry.
type PTE struct {
	Frame uint64
	Valid bool
	Dirty bool
}

// Pid identifies a process.
type Pid int

// Bounds on what a simulated machine allocates, which labd and cmd/vmsim
// check before they build one: a frame table of NumFrames entries, a TLB
// of TLBSize entries, and a page table of NumPages entries per process.
const (
	MaxFrames      = 1 << 12
	MaxTLBEntries  = 1 << 10
	MaxPageEntries = 1 << 20 // NumPages times the number of processes
)

// Config describes the simulated machine.
type Config struct {
	PageSize  uint64 // bytes; must be a power of two
	NumFrames int    // physical frames
	TLBSize   int    // entries; 0 disables the TLB
	NumPages  uint64 // virtual pages per process
}

// Validate checks structural requirements.
func (c Config) Validate() error {
	if c.PageSize == 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("vm: page size %d is not a power of two", c.PageSize)
	}
	if c.NumFrames <= 0 {
		return fmt.Errorf("vm: need at least one frame")
	}
	if c.NumPages == 0 {
		return fmt.Errorf("vm: need at least one virtual page")
	}
	if c.TLBSize < 0 {
		return fmt.Errorf("vm: negative TLB size")
	}
	return nil
}

// offsetBits is log2(PageSize).
func (c Config) offsetBits() uint { return uint(bits.TrailingZeros64(c.PageSize)) }

// SplitAddr divides a virtual address into page number and offset.
func (c Config) SplitAddr(vaddr uint64) (page, offset uint64) {
	return vaddr >> c.offsetBits(), vaddr & (c.PageSize - 1)
}

// frameInfo records which (pid, page) owns a physical frame.
type frameInfo struct {
	pid     Pid
	page    uint64
	used    bool
	lastUse int64
}

// tlbEntry caches one translation for the running process.
type tlbEntry struct {
	page    uint64
	frame   uint64
	valid   bool
	lastUse int64
}

// Stats counts translation events.
type Stats struct {
	Accesses   int64
	PageFaults int64
	TLBHits    int64
	TLBMisses  int64
	Evictions  int64
	WriteBacks int64 // dirty page evictions
}

// FaultRate is PageFaults / Accesses.
func (s Stats) FaultRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.PageFaults) / float64(s.Accesses)
}

// TLBHitRate is TLBHits / Accesses.
func (s Stats) TLBHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.TLBHits) / float64(s.Accesses)
}

// Result describes one translated access.
type Result struct {
	PhysAddr   uint64
	Page       uint64
	Frame      uint64
	PageFault  bool
	TLBHit     bool
	Evicted    bool
	EvictedPid Pid
	EvictedPg  uint64
	WroteBack  bool
}

// System is the simulated virtual memory system.
type System struct {
	cfg     Config
	tables  map[Pid][]PTE
	frames  []frameInfo
	tlb     []tlbEntry
	current Pid
	clock   int64
	stats   Stats

	// ContextSwitches counts switches, including the implicit first bind.
	ContextSwitches int64
}

// New builds a system with no processes; call AddProcess then Switch.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{
		cfg:     cfg,
		tables:  make(map[Pid][]PTE),
		frames:  make([]frameInfo, cfg.NumFrames),
		tlb:     make([]tlbEntry, cfg.TLBSize),
		current: -1,
	}, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns accumulated statistics.
func (s *System) Stats() Stats { return s.stats }

// Current returns the running process.
func (s *System) Current() Pid { return s.current }

// AddProcess creates an empty page table for pid.
func (s *System) AddProcess(pid Pid) error {
	if _, dup := s.tables[pid]; dup {
		return fmt.Errorf("vm: process %d already exists", pid)
	}
	s.tables[pid] = make([]PTE, s.cfg.NumPages)
	return nil
}

// Switch makes pid the running process, flushing the TLB — the mechanism
// behind the course's "what does a context switch do to translation?"
// discussion.
func (s *System) Switch(pid Pid) error {
	if _, ok := s.tables[pid]; !ok {
		return fmt.Errorf("vm: no process %d", pid)
	}
	if pid != s.current {
		s.ContextSwitches++
		for i := range s.tlb {
			s.tlb[i].valid = false
		}
	}
	s.current = pid
	return nil
}

// PageTable returns a copy of a process's page table for inspection.
func (s *System) PageTable(pid Pid) ([]PTE, error) {
	t, ok := s.tables[pid]
	if !ok {
		return nil, fmt.Errorf("vm: no process %d", pid)
	}
	out := make([]PTE, len(t))
	copy(out, t)
	return out, nil
}

// Access translates one virtual address for the running process, handling
// TLB lookup, page faults, and LRU replacement.
func (s *System) Access(vaddr uint64, write bool) (Result, error) {
	if s.current < 0 {
		return Result{}, fmt.Errorf("vm: no running process")
	}
	page, offset := s.cfg.SplitAddr(vaddr)
	if page >= s.cfg.NumPages {
		return Result{}, fmt.Errorf("vm: virtual page %d out of range (segfault)", page)
	}
	s.clock++
	s.stats.Accesses++
	table := s.tables[s.current]
	res := Result{Page: page}

	// TLB lookup.
	if len(s.tlb) > 0 {
		for i := range s.tlb {
			if s.tlb[i].valid && s.tlb[i].page == page {
				s.stats.TLBHits++
				res.TLBHit = true
				res.Frame = s.tlb[i].frame
				s.tlb[i].lastUse = s.clock
				s.frames[res.Frame].lastUse = s.clock
				if write {
					table[page].Dirty = true
				}
				res.PhysAddr = res.Frame*s.cfg.PageSize + offset
				return res, nil
			}
		}
		s.stats.TLBMisses++
	}

	// Page table walk.
	if !table[page].Valid {
		s.stats.PageFaults++
		res.PageFault = true
		frame, evicted, evPid, evPg, wb := s.allocFrame()
		res.Evicted, res.EvictedPid, res.EvictedPg, res.WroteBack = evicted, evPid, evPg, wb
		table[page] = PTE{Frame: frame, Valid: true}
		s.frames[frame] = frameInfo{pid: s.current, page: page, used: true, lastUse: s.clock}
	}
	frame := table[page].Frame
	s.frames[frame].lastUse = s.clock
	if write {
		table[page].Dirty = true
	}
	s.tlbInsert(page, frame)
	res.Frame = frame
	res.PhysAddr = frame*s.cfg.PageSize + offset
	return res, nil
}

// allocFrame finds a free frame or evicts the LRU one.
func (s *System) allocFrame() (frame uint64, evicted bool, evPid Pid, evPg uint64, wroteBack bool) {
	for i := range s.frames {
		if !s.frames[i].used {
			return uint64(i), false, 0, 0, false
		}
	}
	victim := 0
	for i := 1; i < len(s.frames); i++ {
		if s.frames[i].lastUse < s.frames[victim].lastUse {
			victim = i
		}
	}
	fi := s.frames[victim]
	s.stats.Evictions++
	vt := s.tables[fi.pid]
	if vt[fi.page].Dirty {
		s.stats.WriteBacks++
		wroteBack = true
	}
	vt[fi.page] = PTE{}
	// Invalidate any TLB entry for the evicted page if it belongs to the
	// running process.
	if fi.pid == s.current {
		for i := range s.tlb {
			if s.tlb[i].valid && s.tlb[i].page == fi.page {
				s.tlb[i].valid = false
			}
		}
	}
	return uint64(victim), true, fi.pid, fi.page, wroteBack
}

// tlbInsert caches a translation, evicting the LRU entry if full.
func (s *System) tlbInsert(page, frame uint64) {
	if len(s.tlb) == 0 {
		return
	}
	victim := 0
	for i := range s.tlb {
		if !s.tlb[i].valid {
			victim = i
			break
		}
		if s.tlb[i].lastUse < s.tlb[victim].lastUse {
			victim = i
		}
	}
	s.tlb[victim] = tlbEntry{page: page, frame: frame, valid: true, lastUse: s.clock}
}

// ResidentPages counts valid PTEs for a process.
func (s *System) ResidentPages(pid Pid) int {
	n := 0
	for _, e := range s.tables[pid] {
		if e.Valid {
			n++
		}
	}
	return n
}

// UsedFrames counts occupied physical frames.
func (s *System) UsedFrames() int {
	n := 0
	for _, f := range s.frames {
		if f.used {
			n++
		}
	}
	return n
}

// EffectiveAccessTime computes the course's EAT formula extended with TLB:
// every access pays memTimeNs for the data reference; a TLB miss adds a
// page-table read (another memTimeNs); a page fault adds faultPenaltyNs.
func (s *System) EffectiveAccessTime(memTimeNs, faultPenaltyNs float64) float64 {
	if s.stats.Accesses == 0 {
		return 0
	}
	n := float64(s.stats.Accesses)
	total := n * memTimeNs
	total += float64(s.stats.TLBMisses) * memTimeNs
	if len(s.tlb) == 0 {
		// No TLB: every access walks the page table.
		total += n * memTimeNs
	}
	total += float64(s.stats.PageFaults) * faultPenaltyNs
	return total / n
}
