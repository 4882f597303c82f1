// Package memhier models the memory-hierarchy module of CS 31: the catalog
// of storage technologies with their latency/capacity/cost trade-offs, the
// hierarchy built from them, locality analysis of access traces, and the
// loop-order trace generators behind the course's stride-pattern exercise.
// Its Access type is the trace currency shared with the cache and vm
// simulators.
package memhier

import "fmt"

// Access is one memory reference in a trace.
type Access struct {
	Addr  uint64
	Write bool
}

// R and W build read and write accesses, for concise trace literals.
func R(addr uint64) Access { return Access{Addr: addr} }

// W returns a write access.
func W(addr uint64) Access { return Access{Addr: addr, Write: true} }

// Device describes one storage technology the course catalogs.
type Device struct {
	Name        string
	LatencyNs   float64 // typical access latency in nanoseconds
	Capacity    uint64  // typical capacity in bytes
	DollarPerGB float64
	Primary     bool // directly addressable by CPU instructions
}

// DefaultHierarchy is the course's canonical memory hierarchy, fast and
// small at the top, slow and dense at the bottom. Numbers are the
// order-of-magnitude figures used in lecture.
var DefaultHierarchy = []Device{
	{Name: "registers", LatencyNs: 0.3, Capacity: 1 << 10, DollarPerGB: 0, Primary: true},
	{Name: "L1 cache", LatencyNs: 1, Capacity: 64 << 10, DollarPerGB: 0, Primary: true},
	{Name: "L2 cache", LatencyNs: 4, Capacity: 512 << 10, DollarPerGB: 0, Primary: true},
	{Name: "L3 cache", LatencyNs: 12, Capacity: 8 << 20, DollarPerGB: 0, Primary: true},
	{Name: "RAM", LatencyNs: 100, Capacity: 8 << 30, DollarPerGB: 5, Primary: true},
	{Name: "SSD", LatencyNs: 100_000, Capacity: 512 << 30, DollarPerGB: 0.1, Primary: false},
	{Name: "HDD", LatencyNs: 10_000_000, Capacity: 4 << 40, DollarPerGB: 0.02, Primary: false},
}

// ValidateHierarchy checks the monotonic structure the course teaches:
// going down the hierarchy, latency must not decrease and capacity must not
// shrink.
func ValidateHierarchy(devs []Device) error {
	for i := 1; i < len(devs); i++ {
		if devs[i].LatencyNs < devs[i-1].LatencyNs {
			return fmt.Errorf("memhier: %s is faster than %s above it",
				devs[i].Name, devs[i-1].Name)
		}
		if devs[i].Capacity < devs[i-1].Capacity {
			return fmt.Errorf("memhier: %s is smaller than %s above it",
				devs[i].Name, devs[i-1].Name)
		}
	}
	return nil
}

// EffectiveAccessTime is the course's two-level EAT formula:
// hitRate*hitTime + (1-hitRate)*missPenalty.
func EffectiveAccessTime(hitTimeNs, missPenaltyNs, hitRate float64) (float64, error) {
	if hitRate < 0 || hitRate > 1 {
		return 0, fmt.Errorf("memhier: hit rate %v outside [0,1]", hitRate)
	}
	return hitRate*hitTimeNs + (1-hitRate)*missPenaltyNs, nil
}

// LocalityReport quantifies the temporal and spatial locality of a trace.
type LocalityReport struct {
	Accesses int
	// TemporalHits counts accesses whose exact address appeared in the
	// previous Window accesses.
	TemporalHits int
	// SpatialHits counts accesses landing within Radius bytes of some
	// address in the previous Window accesses (excluding exact repeats).
	SpatialHits int
	Window      int
	Radius      uint64
}

// TemporalFraction is TemporalHits / Accesses.
func (r LocalityReport) TemporalFraction() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.TemporalHits) / float64(r.Accesses)
}

// SpatialFraction is SpatialHits / Accesses.
func (r LocalityReport) SpatialFraction() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.SpatialHits) / float64(r.Accesses)
}

// AnalyzeLocality scans a trace with a sliding window of the given size,
// classifying each access as a temporal reuse (same address seen in
// window), a spatial neighbor (within radius bytes of a windowed address),
// or neither. It is the formalization of the in-class "library books"
// intuition exercise.
func AnalyzeLocality(trace []Access, window int, radius uint64) LocalityReport {
	if window <= 0 {
		window = 32
	}
	rep := LocalityReport{Accesses: len(trace), Window: window, Radius: radius}
	recent := make([]uint64, 0, window)
	for _, a := range trace {
		temporal := false
		spatial := false
		for _, prev := range recent {
			if prev == a.Addr {
				temporal = true
				break
			}
			var d uint64
			if prev > a.Addr {
				d = prev - a.Addr
			} else {
				d = a.Addr - prev
			}
			if d <= radius {
				spatial = true
			}
		}
		if temporal {
			rep.TemporalHits++
		} else if spatial {
			rep.SpatialHits++
		}
		recent = append(recent, a.Addr)
		if len(recent) > window {
			recent = recent[1:]
		}
	}
	return rep
}

// The trace generators know their exact output length up front, so each
// makes at most one allocation, and the Append* forms make none when the
// destination has capacity: a caller that regenerates traces can reuse
// one buffer with dst[:0], as BenchmarkMatrixTraceAlloc does.

// MatrixTraceRowMajor generates the access trace of the cache exercise's
// "good" loop nest: for i { for j { sum += m[i][j] } } over a rows x cols
// matrix of elemSize-byte elements at base — unit stride through memory.
func MatrixTraceRowMajor(base uint64, rows, cols int, elemSize uint64) []Access {
	return AppendMatrixTraceRowMajor(make([]Access, 0, rows*cols), base, rows, cols, elemSize)
}

// AppendMatrixTraceRowMajor appends the row-major trace to dst and returns
// the extended slice.
func AppendMatrixTraceRowMajor(dst []Access, base uint64, rows, cols int, elemSize uint64) []Access {
	dst = growTrace(dst, rows*cols)
	for i := 0; i < rows; i++ {
		rowBase := base + uint64(i)*uint64(cols)*elemSize
		for j := 0; j < cols; j++ {
			dst = append(dst, R(rowBase+uint64(j)*elemSize))
		}
	}
	return dst
}

// MatrixTraceColMajor generates the "bad" loop nest: for j { for i { ... } }
// — stride of a full row between consecutive accesses.
func MatrixTraceColMajor(base uint64, rows, cols int, elemSize uint64) []Access {
	return AppendMatrixTraceColMajor(make([]Access, 0, rows*cols), base, rows, cols, elemSize)
}

// AppendMatrixTraceColMajor appends the column-major trace to dst and
// returns the extended slice.
func AppendMatrixTraceColMajor(dst []Access, base uint64, rows, cols int, elemSize uint64) []Access {
	dst = growTrace(dst, rows*cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			dst = append(dst, R(base+(uint64(i)*uint64(cols)+uint64(j))*elemSize))
		}
	}
	return dst
}

// StrideTrace generates n accesses starting at base with a fixed byte
// stride — the generic form of the exercise.
func StrideTrace(base uint64, n int, stride uint64) []Access {
	return AppendStrideTrace(make([]Access, 0, n), base, n, stride)
}

// AppendStrideTrace appends the stride trace to dst and returns the
// extended slice.
func AppendStrideTrace(dst []Access, base uint64, n int, stride uint64) []Access {
	dst = growTrace(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, R(base+uint64(i)*stride))
	}
	return dst
}

// growTrace guarantees capacity for n more accesses with at most one
// allocation (append's doubling could reallocate repeatedly for long
// traces).
func growTrace(dst []Access, n int) []Access {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	grown := make([]Access, len(dst), len(dst)+n)
	copy(grown, dst)
	return grown
}

// RepeatTrace repeats a trace k times, modeling an outer loop over the same
// working set (the source of temporal locality).
func RepeatTrace(trace []Access, k int) []Access {
	out := make([]Access, 0, len(trace)*k)
	for i := 0; i < k; i++ {
		out = append(out, trace...)
	}
	return out
}

// Level is one tier in a multi-level effective-access-time computation.
type Level struct {
	Name      string
	LatencyNs float64 // access time of this tier
	HitRate   float64 // fraction of accesses reaching this tier that hit it
}

// MultiLevelEAT chains the course's EAT formula through multiple cache
// levels: an access pays each tier's latency until it hits, and the final
// tier must catch everything (hit rate 1).
func MultiLevelEAT(levels []Level) (float64, error) {
	if len(levels) == 0 {
		return 0, fmt.Errorf("memhier: no levels")
	}
	for i, l := range levels {
		if l.HitRate < 0 || l.HitRate > 1 {
			return 0, fmt.Errorf("memhier: level %q hit rate %v outside [0,1]", l.Name, l.HitRate)
		}
		if l.LatencyNs < 0 {
			return 0, fmt.Errorf("memhier: level %q negative latency", l.Name)
		}
		if i == len(levels)-1 && l.HitRate != 1 {
			return 0, fmt.Errorf("memhier: last level %q must have hit rate 1", l.Name)
		}
	}
	eat := 0.0
	reach := 1.0 // fraction of accesses reaching this tier
	for _, l := range levels {
		eat += reach * l.LatencyNs
		reach *= 1 - l.HitRate
	}
	return eat, nil
}
