package obs

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Safe on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of power-of-two buckets: bucket i counts
// observations v (nanoseconds) with v <= 2^i, i.e. i = bits.Len64(v-1);
// bucket 0 holds v <= 1 and the last bucket everything else.
const histBuckets = 64

// histShard is one contention domain of a Histogram, padded so shards
// never share a cache line.
type histShard struct {
	counts [histBuckets + 1]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
	_      [40]byte
}

// Histogram is a sharded power-of-two latency histogram. Hot paths that
// know a small integer identity (worker id, rank) call ObserveShard to
// stay contention-free; Observe round-robins across shards. Shards
// merge at snapshot time, so recording is a few atomic adds with no
// lock. Safe on a nil receiver.
type Histogram struct {
	shards []histShard
	mask   uint64
	_      [56]byte
	rr     atomic.Uint64
}

// NewHistogram builds a histogram with the given shard count (rounded
// up to a power of two; <=0 selects 8).
func NewHistogram(shards int) *Histogram {
	if shards <= 0 {
		shards = 8
	}
	shards = ceilPow2(shards)
	return &Histogram{shards: make([]histShard, shards), mask: uint64(shards - 1)}
}

func bucketFor(ns int64) int {
	if ns <= 1 {
		return 0
	}
	b := bits.Len64(uint64(ns - 1))
	if b > histBuckets {
		return histBuckets
	}
	return b
}

// Observe records a nanosecond value on a round-robin shard.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	h.observe(int(h.rr.Add(1)), ns)
}

// ObserveShard records a nanosecond value on the shard selected by id
// (reduced modulo the shard count) — the zero-contention path for
// callers with a stable small identity.
func (h *Histogram) ObserveShard(id int, ns int64) {
	if h == nil {
		return
	}
	h.observe(id, ns)
}

func (h *Histogram) observe(id int, ns int64) {
	sh := &h.shards[uint64(id)&h.mask]
	sh.counts[bucketFor(ns)].Add(1)
	sh.sum.Add(ns)
	sh.count.Add(1)
}

// HistogramSnapshot is the merged view of a histogram's shards.
type HistogramSnapshot struct {
	Counts [histBuckets + 1]int64 // per-bucket counts; bucket i holds ns <= 2^i
	Count  int64
	Sum    int64 // ns
}

// Snapshot merges every shard into one consistent-enough view (each
// counter is read atomically; cross-counter skew is bounded by
// in-flight observations).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.Sum += sh.sum.Load()
		s.Count += sh.count.Load()
	}
	return s
}

// Every view of a histogram (the Prometheus exposition, labd's
// /debug/vars) renders the same fixed, bounded subset of the 65
// power-of-two bucket bounds so every read has a stable schema:
// 2^promBucketLo ns up to 2^promBucketHi ns every promBucketStep
// exponents, then +Inf. 2^8 ns = 256ns, 2^36 ns ~= 68.7s.
const (
	promBucketLo   = 8
	promBucketHi   = 36
	promBucketStep = 2

	// ExpositionBuckets is the number of finite bounds; Cumulative
	// returns one count more, the +Inf bucket.
	ExpositionBuckets = (promBucketHi-promBucketLo)/promBucketStep + 1
)

// ExpositionBound returns the upper bound, in nanoseconds, of finite
// exposition bucket i (0 <= i < ExpositionBuckets).
func ExpositionBound(i int) int64 { return 1 << uint(promBucketLo+i*promBucketStep) }

// Cumulative folds the snapshot into the exposition schema: element i
// counts the observations <= ExpositionBound(i), and the last element,
// the +Inf bucket, is the total count.
func (s HistogramSnapshot) Cumulative() [ExpositionBuckets + 1]int64 {
	var out [ExpositionBuckets + 1]int64
	var cum int64
	next := 0
	for i := 0; i < ExpositionBuckets; i++ {
		for hi := promBucketLo + i*promBucketStep; next <= hi; next++ {
			cum += s.Counts[next]
		}
		out[i] = cum
	}
	out[ExpositionBuckets] = s.Count
	return out
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type series struct {
	labels  string // rendered label pairs without braces, "" for none
	counter *Counter
	hist    *Histogram
	fn      func() int64
}

type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry is a set of named metric families rendered by
// WritePrometheus. Registration is mutex-guarded get-or-create keyed
// by (name, labels); reads of registered metrics are lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Label renders one escaped label pair for the labels argument of the
// registration methods; join several with commas.
func Label(key, value string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return key + `="` + r.Replace(value) + `"`
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	return f
}

func (f *family) find(labels string) *series {
	for _, s := range f.series {
		if s.labels == labels {
			return s
		}
	}
	return nil
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help, labels string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	if s := f.find(labels); s != nil {
		return s.counter
	}
	s := &series{labels: labels, counter: &Counter{}}
	f.series = append(f.series, s)
	return s.counter
}

// CounterFunc registers a counter series whose value is read from fn
// at scrape time.
func (r *Registry) CounterFunc(name, help, labels string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	if f.find(labels) != nil {
		return
	}
	f.series = append(f.series, &series{labels: labels, fn: fn})
}

// GaugeFunc registers a gauge series whose value is read from fn at
// scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	if f.find(labels) != nil {
		return
	}
	f.series = append(f.series, &series{labels: labels, fn: fn})
}

// Histogram registers (or finds) a histogram series observing
// nanoseconds and rendered in seconds (name it *_seconds).
func (r *Registry) Histogram(name, help, labels string, shards int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram)
	if s := f.find(labels); s != nil {
		return s.hist
	}
	s := &series{labels: labels, hist: NewHistogram(shards)}
	f.series = append(f.series, s)
	return s.hist
}

func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return "{" + labels + "," + extra + "}"
}

func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE per family, series sorted
// by label string, histograms as cumulative _bucket/_sum/_count in
// seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		r.mu.Lock()
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		r.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })

		typ := "counter"
		switch f.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, typ)
		for _, s := range ss {
			switch {
			case s.hist != nil:
				snap := s.hist.Snapshot()
				for i, cum := range snap.Cumulative() {
					le := "+Inf"
					if i < ExpositionBuckets {
						le = formatFloat(float64(ExpositionBound(i)) / 1e9)
					}
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, joinLabels(s.labels, `le="`+le+`"`), cum)
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, wrapLabels(s.labels), formatFloat(float64(snap.Sum)/1e9))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, wrapLabels(s.labels), snap.Count)
			case s.counter != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, wrapLabels(s.labels), s.counter.Value())
			case s.fn != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, wrapLabels(s.labels), s.fn())
			}
		}
	}
	return bw.Flush()
}
