package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"cs31/internal/memhier"
)

func directMapped(t *testing.T, size, block int) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: size, BlockSize: block, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestParsePolicies: every accepted name maps to its value, and an
// unknown name is reported with its message, write before alloc before
// repl.
func TestParsePolicies(t *testing.T) {
	accepted := []struct {
		write, alloc, repl string
		w                  WritePolicy
		a                  AllocPolicy
		r                  ReplPolicy
	}{
		{"back", "allocate", "lru", WriteBack, WriteAllocate, LRU},
		{"through", "noallocate", "fifo", WriteThrough, NoWriteAllocate, FIFO},
	}
	for _, c := range accepted {
		w, a, r, err := ParsePolicies(c.write, c.alloc, c.repl)
		if err != nil || w != c.w || a != c.a || r != c.r {
			t.Errorf("ParsePolicies(%q, %q, %q) = %v, %v, %v, %v; want %v, %v, %v, nil",
				c.write, c.alloc, c.repl, w, a, r, err, c.w, c.a, c.r)
		}
	}
	rejected := []struct{ write, alloc, repl, want string }{
		{"around", "allocate", "lru", `unknown write policy "around"`},
		{"back", "sometimes", "lru", `unknown alloc policy "sometimes"`},
		{"back", "allocate", "random", `unknown replacement policy "random"`},
		{"", "allocate", "lru", `unknown write policy ""`},
		{"Back", "allocate", "lru", `unknown write policy "Back"`},
		// Two or three unknown names: the first in write, alloc, repl
		// order is the one reported.
		{"x", "allocate", "z", `unknown write policy "x"`},
		{"back", "y", "z", `unknown alloc policy "y"`},
		{"x", "y", "z", `unknown write policy "x"`},
	}
	for _, c := range rejected {
		_, _, _, err := ParsePolicies(c.write, c.alloc, c.repl)
		if err == nil || err.Error() != c.want {
			t.Errorf("ParsePolicies(%q, %q, %q) error = %v, want %s", c.write, c.alloc, c.repl, err, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 1024, BlockSize: 16, Assoc: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, BlockSize: 16, Assoc: 1},
		{SizeBytes: 1024, BlockSize: 0, Assoc: 1},
		{SizeBytes: 1024, BlockSize: 16, Assoc: 0},
		{SizeBytes: 1024, BlockSize: 24, Assoc: 1},  // block not power of 2
		{SizeBytes: 1000, BlockSize: 16, Assoc: 1},  // not divisible
		{SizeBytes: 1024, BlockSize: 16, Assoc: 64}, // sets = 1 ok... but
	}
	for i, cfg := range bad[:5] {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// Block times associativity must be refused before it can wrap to 0,
	// and a cache holds at most MaxLines lines, inclusive.
	for _, cfg := range []Config{
		{SizeBytes: 1024, BlockSize: 1 << 32, Assoc: 1 << 32},
		{SizeBytes: 64, BlockSize: 1 << 62, Assoc: 4},
		{SizeBytes: 8 << 20, BlockSize: 64, Assoc: 1}, // 131,072 lines
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config accepted: %+v", cfg)
		}
	}
	if err := (Config{SizeBytes: MaxLines * 64, BlockSize: 64, Assoc: 1}).Validate(); err != nil {
		t.Errorf("cache of MaxLines lines rejected: %v", err)
	}
	// Fully associative (one set) is legal.
	fa := Config{SizeBytes: 1024, BlockSize: 16, Assoc: 64}
	if err := fa.Validate(); err != nil {
		t.Errorf("fully associative rejected: %v", err)
	}
	if _, err := New(Config{SizeBytes: 1000, BlockSize: 16, Assoc: 1}); err == nil {
		t.Error("New should validate")
	}
}

func TestAddressDivision(t *testing.T) {
	// The homework's canonical setup: 16-byte blocks, 4 sets -> 4 offset
	// bits, 2 index bits.
	cfg := Config{SizeBytes: 64, BlockSize: 16, Assoc: 1}
	if cfg.NumSets() != 4 || cfg.OffsetBits() != 4 || cfg.IndexBits() != 2 {
		t.Fatalf("sets=%d offset=%d index=%d", cfg.NumSets(), cfg.OffsetBits(), cfg.IndexBits())
	}
	p := cfg.Split(0x1234)
	// 0x1234 = 0001 0010 0011 0100: offset=0x4, index=0b11, tag=0x48
	if p.Offset != 0x4 || p.Index != 0x3 || p.Tag != 0x48 {
		t.Errorf("split(0x1234) = %+v", p)
	}
	if cfg.Join(p) != 0x1234 {
		t.Errorf("join = %#x", cfg.Join(p))
	}
}

// Property: Split and Join are inverses for any address.
func TestSplitJoinProperty(t *testing.T) {
	cfg := Config{SizeBytes: 4096, BlockSize: 32, Assoc: 4}
	f := func(addr uint64) bool {
		return cfg.Join(cfg.Split(addr)) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := directMapped(t, 64, 16)
	r1 := c.Access(0x100, false)
	if r1.Hit {
		t.Error("cold access should miss")
	}
	r2 := c.Access(0x104, false) // same block
	if !r2.Hit {
		t.Error("same-block access should hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.MemReads != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// Two addresses mapping to the same set thrash a direct-mapped cache.
	c := directMapped(t, 64, 16) // 4 sets, index bits 4-5
	a := uint64(0x000)
	b := uint64(0x040) // same index (0), different tag
	for i := 0; i < 4; i++ {
		c.Access(a, false)
		c.Access(b, false)
	}
	s := c.Stats()
	if s.Hits != 0 {
		t.Errorf("conflict thrashing should never hit, got %d hits", s.Hits)
	}
	if s.Evictions != 7 {
		t.Errorf("evictions = %d, want 7", s.Evictions)
	}
}

func TestTwoWayAssociativityFixesConflict(t *testing.T) {
	// The same thrashing pair fits in a 2-way set.
	c, err := New(Config{SizeBytes: 128, BlockSize: 16, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := uint64(0x000)
	b := uint64(0x080) // same index in a 4-set 2-way cache
	if c.Config().Split(a).Index != c.Config().Split(b).Index {
		t.Fatal("test addresses must share a set")
	}
	for i := 0; i < 4; i++ {
		c.Access(a, false)
		c.Access(b, false)
	}
	s := c.Stats()
	if s.Hits != 6 {
		t.Errorf("2-way should hit 6 of 8, got %d", s.Hits)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way set; fill with A, B; touch A; insert C -> B evicted.
	c, err := New(Config{SizeBytes: 32, BlockSize: 16, Assoc: 2}) // 1 set
	if err != nil {
		t.Fatal(err)
	}
	a, b, cc := uint64(0x00), uint64(0x10), uint64(0x20)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // A is now MRU
	res := c.Access(cc, false)
	if !res.Evicted {
		t.Fatal("expected eviction")
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(cc) {
		t.Error("LRU should have evicted B")
	}
}

func TestFIFOReplacement(t *testing.T) {
	// Same sequence under FIFO evicts A (first in), even though A was
	// touched most recently.
	c, err := New(Config{SizeBytes: 32, BlockSize: 16, Assoc: 2, Repl: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	a, b, cc := uint64(0x00), uint64(0x10), uint64(0x20)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false)
	c.Access(cc, false)
	if c.Contains(a) || !c.Contains(b) || !c.Contains(cc) {
		t.Error("FIFO should have evicted A")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := directMapped(t, 16, 16) // single line
	c.Access(0x00, true)         // write-allocate, line dirty
	if c.DirtyLines() != 1 {
		t.Error("line should be dirty")
	}
	res := c.Access(0x40, false) // evicts dirty line
	if !res.WroteBack {
		t.Error("dirty eviction should write back")
	}
	s := c.Stats()
	if s.WriteBacks != 1 || s.MemWrites != 0 {
		t.Errorf("stats: %+v", s)
	}
}

func TestWriteThrough(t *testing.T) {
	c, err := New(Config{SizeBytes: 16, BlockSize: 16, Assoc: 1, Write: WriteThrough})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x00, true) // miss, allocate, write through
	c.Access(0x04, true) // hit, write through
	s := c.Stats()
	if s.MemWrites != 2 {
		t.Errorf("write-through mem writes = %d, want 2", s.MemWrites)
	}
	if c.DirtyLines() != 0 {
		t.Error("write-through lines are never dirty")
	}
	c.Access(0x40, false)
	if c.Stats().WriteBacks != 0 {
		t.Error("write-through never writes back")
	}
}

func TestNoWriteAllocate(t *testing.T) {
	c, err := New(Config{SizeBytes: 16, BlockSize: 16, Assoc: 1,
		Write: WriteThrough, Alloc: NoWriteAllocate})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Access(0x00, true)
	if res.FilledBlock {
		t.Error("no-write-allocate should not fill on write miss")
	}
	if c.ValidLines() != 0 {
		t.Error("cache should stay empty")
	}
	if c.Stats().MemWrites != 1 {
		t.Error("write should go to memory")
	}
}

func TestFlush(t *testing.T) {
	c := directMapped(t, 64, 16)
	c.Access(0x00, true)
	c.Access(0x10, false)
	c.Flush()
	if c.ValidLines() != 0 {
		t.Error("flush should invalidate everything")
	}
	if c.Stats().WriteBacks != 1 {
		t.Errorf("flush should write back the dirty line: %+v", c.Stats())
	}
}

// Property: after any access, the accessed block is resident (except under
// no-write-allocate write misses), and valid lines never exceed capacity.
func TestResidencyInvariant(t *testing.T) {
	cfg := Config{SizeBytes: 256, BlockSize: 16, Assoc: 2}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalLines := cfg.SizeBytes / cfg.BlockSize
	f := func(addrRaw uint16, write bool) bool {
		addr := uint64(addrRaw)
		c.Access(addr, write)
		return c.Contains(addr) && c.ValidLines() <= totalLines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == accesses, and hit rate in [0,1].
func TestStatsConsistency(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New(Config{SizeBytes: 128, BlockSize: 8, Assoc: 2})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses &&
			s.HitRate() >= 0 && s.HitRate() <= 1 &&
			s.HitRate()+s.MissRate() <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The course's stride exercise: row-major traversal dramatically out-hits
// column-major on the same matrix.
func TestRowVsColumnMajorHitRates(t *testing.T) {
	cfg := Config{SizeBytes: 1024, BlockSize: 64, Assoc: 1}
	rows, cols := 64, 64
	rm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rm.RunTrace(memhier.MatrixTraceRowMajor(0, rows, cols, 4))
	cm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm.RunTrace(memhier.MatrixTraceColMajor(0, rows, cols, 4))

	rmRate := rm.Stats().HitRate()
	cmRate := cm.Stats().HitRate()
	// Row-major: 16 ints per 64-byte block -> 15/16 hit rate.
	if rmRate < 0.9 {
		t.Errorf("row-major hit rate %v, want ~0.94", rmRate)
	}
	// Column-major with a 64-row stride thrashes every access.
	if cmRate > 0.1 {
		t.Errorf("column-major hit rate %v, want ~0", cmRate)
	}
	if rmRate <= cmRate {
		t.Errorf("row-major (%v) must beat column-major (%v)", rmRate, cmRate)
	}
}

func TestEmptyStats(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 || s.MissRate() != 0 {
		t.Error("empty stats rates should be 0")
	}
}

func TestTraceTable(t *testing.T) {
	cfg := Config{SizeBytes: 64, BlockSize: 16, Assoc: 1}
	trace := []memhier.Access{
		memhier.R(0x00), memhier.R(0x04), memhier.W(0x40), memhier.R(0x00),
	}
	out, err := TraceTable(cfg, trace, 10)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("table:\n%s", out)
	}
	if !strings.Contains(lines[1], "MISS") || !strings.Contains(lines[2], "hit") {
		t.Errorf("table rows:\n%s", out)
	}
	if !strings.Contains(lines[4], "evict") {
		t.Errorf("final row should show eviction:\n%s", out)
	}
	if _, err := TraceTable(Config{}, trace, 1); err == nil {
		t.Error("bad config should fail")
	}
}

func TestPolicyStrings(t *testing.T) {
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Error("write policy names")
	}
	if WriteAllocate.String() != "write-allocate" || NoWriteAllocate.String() != "no-write-allocate" {
		t.Error("alloc policy names")
	}
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Error("repl policy names")
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c, err := New(Config{SizeBytes: 32 << 10, BlockSize: 64, Assoc: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64)%(1<<20), i%4 == 0)
	}
}
