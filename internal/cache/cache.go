// Package cache is the trace-driven cache simulator behind CS 31's caching
// module and the direct-mapped / set-associative homeworks: tag/index/offset
// address division, direct-mapped and N-way set-associative organizations,
// LRU and FIFO replacement, and write-through/write-back with
// write-allocate/no-allocate policies, with full hit/miss/eviction/traffic
// statistics.
package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"cs31/internal/memhier"
)

// WritePolicy selects how writes propagate to memory.
type WritePolicy int

// Write policies.
const (
	WriteBack    WritePolicy = iota // dirty lines written back on eviction
	WriteThrough                    // every store also writes memory
)

func (p WritePolicy) String() string {
	if p == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// AllocPolicy selects what happens on a write miss.
type AllocPolicy int

// Allocation policies.
const (
	WriteAllocate   AllocPolicy = iota // write misses fill the cache
	NoWriteAllocate                    // write misses go straight to memory
)

func (p AllocPolicy) String() string {
	if p == WriteAllocate {
		return "write-allocate"
	}
	return "no-write-allocate"
}

// ReplPolicy selects the victim within a set.
type ReplPolicy int

// Replacement policies.
const (
	LRU ReplPolicy = iota
	FIFO
)

func (p ReplPolicy) String() string {
	if p == LRU {
		return "LRU"
	}
	return "FIFO"
}

// ParsePolicies maps the policy names labd and cmd/cachesim accept —
// "back"/"through", "allocate"/"noallocate", "lru"/"fifo" — onto their
// values. It checks write, then alloc, then repl, and reports the first
// unknown name.
func ParsePolicies(write, alloc, repl string) (w WritePolicy, a AllocPolicy, r ReplPolicy, err error) {
	switch write {
	case "back":
		w = WriteBack
	case "through":
		w = WriteThrough
	default:
		return w, a, r, fmt.Errorf("unknown write policy %q", write)
	}
	switch alloc {
	case "allocate":
		a = WriteAllocate
	case "noallocate":
		a = NoWriteAllocate
	default:
		return w, a, r, fmt.Errorf("unknown alloc policy %q", alloc)
	}
	switch repl {
	case "lru":
		r = LRU
	case "fifo":
		r = FIFO
	default:
		return w, a, r, fmt.Errorf("unknown replacement policy %q", repl)
	}
	return w, a, r, nil
}

// Config describes a cache organization the way the homework does: total
// size, block size, and associativity (1 = direct-mapped).
type Config struct {
	SizeBytes int // total data capacity
	BlockSize int // bytes per line
	Assoc     int // ways per set; 1 = direct-mapped
	Write     WritePolicy
	Alloc     AllocPolicy
	Repl      ReplPolicy
}

// MaxLines bounds a cache's lines (SizeBytes/BlockSize), the entries New
// allocates: Validate refuses more, and labd checks its requests against
// it.
const MaxLines = 1 << 16

// Validate checks the power-of-two structure address division requires
// and the MaxLines bound. BlockSize*Assoc is bounded by division before
// anything multiplies it, so no pair of sizes can wrap it to zero.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.BlockSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: size, block size, and associativity must be positive")
	}
	if c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache: block size %d is not a power of two", c.BlockSize)
	}
	lines := c.SizeBytes / c.BlockSize
	if lines > MaxLines {
		return fmt.Errorf("cache: %d lines (size/block) exceed %d", lines, MaxLines)
	}
	if c.Assoc > lines {
		return fmt.Errorf("cache: block size %d times associativity %d exceeds size %d", c.BlockSize, c.Assoc, c.SizeBytes)
	}
	if c.SizeBytes%(c.BlockSize*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by block*assoc %d",
			c.SizeBytes, c.BlockSize*c.Assoc)
	}
	sets := c.NumSets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// NumSets is the number of sets: size / (blockSize * assoc).
func (c Config) NumSets() int { return c.SizeBytes / (c.BlockSize * c.Assoc) }

// OffsetBits is the number of block-offset bits in an address.
func (c Config) OffsetBits() int { return bits.TrailingZeros64(uint64(c.BlockSize)) }

// IndexBits is the number of set-index bits in an address.
func (c Config) IndexBits() int { return bits.TrailingZeros64(uint64(c.NumSets())) }

// AddressParts is the tag/index/offset division of one address — the
// homework's core skill.
type AddressParts struct {
	Tag    uint64
	Index  uint64
	Offset uint64
}

// Split divides an address into tag, index, and offset fields.
func (c Config) Split(addr uint64) AddressParts {
	ob := uint(c.OffsetBits())
	ib := uint(c.IndexBits())
	return AddressParts{
		Offset: addr & (uint64(c.BlockSize) - 1),
		Index:  (addr >> ob) & (uint64(c.NumSets()) - 1),
		Tag:    addr >> (ob + ib),
	}
}

// Join reassembles an address from its parts (inverse of Split).
func (c Config) Join(p AddressParts) uint64 {
	ob := uint(c.OffsetBits())
	ib := uint(c.IndexBits())
	return p.Tag<<(ob+ib) | p.Index<<ob | p.Offset
}

// line is one cache line's metadata. Lines of one set form an intrusive
// doubly-linked recency list (prev/next are indices into Cache.lines):
// head = most recent, tail = the replacement victim. LRU moves a line to the
// head on every access; FIFO only on fill, so the tail is the oldest fill.
type line struct {
	valid bool
	dirty bool
	tag   uint64
	prev  int32
	next  int32
}

// Stats counts the events the homework has students tabulate.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Evictions  int64
	WriteBacks int64 // dirty lines written back to memory
	MemReads   int64 // block fills from memory
	MemWrites  int64 // word writes to memory (write-through / no-allocate)
}

// HitRate is Hits / Accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// MissRate is 1 - HitRate for non-empty traces.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Result describes a single access's outcome, for the step-by-step tracing
// exercises.
type Result struct {
	Hit         bool
	Parts       AddressParts
	Evicted     bool
	EvictedTag  uint64
	WroteBack   bool
	FilledBlock bool
}

// Cache is a simulated cache. Lines live in one flat slice (set s occupies
// lines[s*assoc : (s+1)*assoc]) so a set lookup is one index computation,
// and the tag/index/offset field widths are resolved once at construction
// instead of per access.
type Cache struct {
	cfg   Config
	stats Stats

	lines []line  // numSets × assoc, flat
	head  []int32 // per-set most-recent line index
	tail  []int32 // per-set replacement victim line index
	// fill counts each set's valid ways. Invariant: ways fill
	// lowest-index-first, so lines[s*assoc : s*assoc+fill[s]] are exactly
	// the valid lines of set s. Any new invalidation path must reset fill
	// and the recency list (as Flush does) to preserve this.
	fill []int32

	assoc      int
	offsetBits uint
	indexBits  uint
	offsetMask uint64
	indexMask  uint64
	isLRU      bool
	writeBack  bool
	allocWrite bool
}

// New builds a cache from a validated config.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ns := cfg.NumSets()
	c := &Cache{
		cfg:        cfg,
		lines:      make([]line, ns*cfg.Assoc),
		head:       make([]int32, ns),
		tail:       make([]int32, ns),
		fill:       make([]int32, ns),
		assoc:      cfg.Assoc,
		offsetBits: uint(cfg.OffsetBits()),
		indexBits:  uint(cfg.IndexBits()),
		offsetMask: uint64(cfg.BlockSize) - 1,
		indexMask:  uint64(ns) - 1,
		isLRU:      cfg.Repl == LRU,
		writeBack:  cfg.Write == WriteBack,
		allocWrite: cfg.Alloc == WriteAllocate,
	}
	c.resetOrder()
	return c, nil
}

// resetOrder relinks every set's recency list to way order 0..assoc-1.
func (c *Cache) resetOrder() {
	for s := 0; s < len(c.head); s++ {
		base := int32(s * c.assoc)
		c.head[s] = base
		c.tail[s] = base + int32(c.assoc) - 1
		for w := int32(0); w < int32(c.assoc); w++ {
			c.lines[base+w].prev = base + w - 1
			c.lines[base+w].next = base + w + 1
		}
		c.lines[base].prev = -1
		c.lines[base+int32(c.assoc)-1].next = -1
	}
}

// touch moves line li to the head (most recent) of set s's recency list.
func (c *Cache) touch(s uint64, li int32) {
	if c.head[s] == li {
		return
	}
	l := &c.lines[li]
	// Unlink.
	c.lines[l.prev].next = l.next
	if l.next >= 0 {
		c.lines[l.next].prev = l.prev
	} else {
		c.tail[s] = l.prev
	}
	// Relink at head.
	l.prev = -1
	l.next = c.head[s]
	c.lines[c.head[s]].prev = li
	c.head[s] = li
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Access simulates one reference and returns its outcome.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.stats.Accesses++
	off := addr & c.offsetMask
	idx := (addr >> c.offsetBits) & c.indexMask
	tag := addr >> (c.offsetBits + c.indexBits)
	res := Result{Parts: AddressParts{Tag: tag, Index: idx, Offset: off}}
	base := int32(idx) * int32(c.assoc)
	set := c.lines[base : base+c.fill[idx]]

	// Hit? Only the filled prefix of the set can match: ways fill
	// lowest-index-first, and today only Flush invalidates (resetting fill).
	// The valid check is cheap insurance against a future single-line
	// invalidation path leaving a stale tag inside the filled prefix.
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			c.stats.Hits++
			res.Hit = true
			if c.isLRU {
				c.touch(idx, base+int32(w))
			}
			if write {
				if c.writeBack {
					set[w].dirty = true
				} else {
					c.stats.MemWrites++
				}
			}
			return res
		}
	}

	// Miss.
	c.stats.Misses++
	if write && !c.allocWrite {
		c.stats.MemWrites++
		return res
	}

	// Choose a victim: first invalid way, else the recency-list tail (least
	// recently used under LRU, oldest fill under FIFO).
	var victim int32
	if c.fill[idx] < int32(c.assoc) {
		victim = base + c.fill[idx]
		c.fill[idx]++
	} else {
		victim = c.tail[idx]
		c.stats.Evictions++
		res.Evicted = true
		res.EvictedTag = c.lines[victim].tag
		if c.lines[victim].dirty {
			c.stats.WriteBacks++
			res.WroteBack = true
		}
	}

	// Fill: both policies stamp recency at fill time.
	c.stats.MemReads++
	res.FilledBlock = true
	l := &c.lines[victim]
	l.valid = true
	l.tag = tag
	l.dirty = write && c.writeBack
	if write && !c.writeBack {
		c.stats.MemWrites++
	}
	c.touch(idx, victim)
	return res
}

// Contains reports whether the block holding addr is resident — used by the
// property tests for the "most recent access is cached" invariant.
func (c *Cache) Contains(addr uint64) bool {
	idx := (addr >> c.offsetBits) & c.indexMask
	tag := addr >> (c.offsetBits + c.indexBits)
	base := int32(idx) * int32(c.assoc)
	for li := base; li < base+c.fill[idx]; li++ {
		if c.lines[li].valid && c.lines[li].tag == tag {
			return true
		}
	}
	return false
}

// DirtyLines counts resident dirty lines (write-back only).
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			n++
		}
	}
	return n
}

// ValidLines counts resident lines.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// Flush writes back all dirty lines and invalidates the cache.
func (c *Cache) Flush() {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			c.stats.WriteBacks++
		}
		c.lines[i] = line{}
	}
	for i := range c.fill {
		c.fill[i] = 0
	}
	c.resetOrder()
}

// RunTrace replays a trace and returns the final statistics.
func (c *Cache) RunTrace(trace []memhier.Access) Stats {
	for _, a := range trace {
		c.Access(a.Addr, a.Write)
	}
	return c.stats
}

// TraceTable renders the first n accesses of a trace as the hit/miss table
// students fill in on the caching homework.
func TraceTable(cfg Config, trace []memhier.Access, n int) (string, error) {
	c, err := New(cfg)
	if err != nil {
		return "", err
	}
	if n > len(trace) {
		n = len(trace)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-6s %-8s %-8s %-8s %s\n",
		"address", "rw", "tag", "index", "offset", "result")
	for _, a := range trace[:n] {
		res := c.Access(a.Addr, a.Write)
		rw := "read"
		if a.Write {
			rw = "write"
		}
		outcome := "MISS"
		if res.Hit {
			outcome = "hit"
		}
		if res.Evicted {
			outcome += fmt.Sprintf(" (evict tag %#x", res.EvictedTag)
			if res.WroteBack {
				outcome += ", write back"
			}
			outcome += ")"
		}
		fmt.Fprintf(&sb, "%#-12x %-6s %#-8x %#-8x %#-8x %s\n",
			a.Addr, rw, res.Parts.Tag, res.Parts.Index, res.Parts.Offset, outcome)
	}
	return sb.String(), nil
}
