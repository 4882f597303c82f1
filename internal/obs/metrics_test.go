package obs

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// serialHistogram is the reference implementation the sharded one must
// match: one bucket array, no shards, no atomics.
type serialHistogram struct {
	counts [histBuckets + 1]int64
	sum    int64
	count  int64
}

func (s *serialHistogram) observe(ns int64) {
	s.counts[bucketFor(ns)]++
	s.sum += ns
	s.count++
}

// TestHistogramShardMergeEquivalence: the merged snapshot of a sharded
// histogram equals a serial reference fed the same observations, for
// round-robin, explicit-shard, and mixed recording.
func TestHistogramShardMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	values := make([]int64, 10000)
	for i := range values {
		switch i % 4 {
		case 0:
			values[i] = rng.Int63n(1000) // sub-µs
		case 1:
			values[i] = rng.Int63n(1_000_000) // sub-ms
		case 2:
			values[i] = rng.Int63n(10_000_000_000) // up to 10s
		default:
			values[i] = int64(1) << uint(rng.Intn(40)) // exact powers of two
		}
	}

	var ref serialHistogram
	for _, v := range values {
		ref.observe(v)
	}

	for _, shards := range []int{1, 4, 8, 16} {
		h := NewHistogram(shards)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(values); i += 8 {
					if i%2 == 0 {
						h.ObserveShard(w, values[i])
					} else {
						h.Observe(values[i])
					}
				}
			}(w)
		}
		wg.Wait()
		snap := h.Snapshot()
		if snap.Count != ref.count || snap.Sum != ref.sum {
			t.Fatalf("shards=%d: count/sum %d/%d, want %d/%d", shards, snap.Count, snap.Sum, ref.count, ref.sum)
		}
		if snap.Counts != ref.counts {
			t.Fatalf("shards=%d: merged buckets differ from serial reference", shards)
		}
	}
}

// TestBucketBoundaries: bucket i holds exactly the values v <= 2^i that
// the next-smaller bucket does not.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11}, {1 << 30, 30}, {(1 << 30) + 1, 31},
	}
	for _, c := range cases {
		if got := bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestCumulativeBounds: exposition bucket i counts exactly the
// observations at or below ExpositionBound(i), and +Inf counts them all.
func TestCumulativeBounds(t *testing.T) {
	h := NewHistogram(2)
	for i := 0; i < ExpositionBuckets; i++ {
		h.Observe(ExpositionBound(i))     // lands in bucket i
		h.Observe(ExpositionBound(i) + 1) // first value past bound i
	}
	cum := h.Snapshot().Cumulative()
	for i := 0; i < ExpositionBuckets; i++ {
		// Every bound up to i, plus the values just past bounds below i.
		if want := int64(2*i + 1); cum[i] != want {
			t.Errorf("bucket le=%dns: %d, want %d", ExpositionBound(i), cum[i], want)
		}
	}
	if got := cum[ExpositionBuckets]; got != 2*ExpositionBuckets {
		t.Errorf("+Inf bucket = %d, want %d", got, 2*ExpositionBuckets)
	}
}

// TestWritePrometheus checks the text exposition is structurally valid:
// HELP/TYPE per family, cumulative non-decreasing histogram buckets
// ending at +Inf == count, escaped label values, sorted families.
func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("labd_requests_total", "requests served", Label("endpoint", `POST /v1/asm/run`)+","+Label("status", "200"))
	c.Add(7)
	reg.Counter("labd_requests_total", "requests served", Label("endpoint", "GET /healthz")+","+Label("status", "200")).Add(2)
	reg.GaugeFunc("labd_jobs_active", "jobs running now", "", func() int64 { return 3 })
	reg.GaugeFunc("labd_queue_len", "queued jobs", "", func() int64 { return 5 })
	h := reg.Histogram("labd_request_duration_seconds", "request latency", Label("endpoint", "POST /v1/asm/run"), 4)
	for i := 0; i < 100; i++ {
		h.Observe(int64(i) * 1_000_000) // 0..99ms
	}
	reg.Counter("escaped_total", "label escaping", Label("v", "a\"b\\c\nd")).Inc()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	text := buf.String()

	for _, want := range []string{
		"# TYPE labd_requests_total counter",
		"# TYPE labd_jobs_active gauge",
		"# TYPE labd_request_duration_seconds histogram",
		`labd_requests_total{endpoint="POST /v1/asm/run",status="200"} 7`,
		"labd_jobs_active 3",
		"labd_queue_len 5",
		`escaped_total{v="a\"b\\c\nd"} 1`,
		`labd_request_duration_seconds_count{endpoint="POST /v1/asm/run"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// Histogram buckets: cumulative, non-decreasing, +Inf equals count.
	var prev, inf int64 = -1, -1
	bucketLines := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "labd_request_duration_seconds_bucket") {
			continue
		}
		bucketLines++
		fields := strings.Fields(line)
		n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts regressed at %q", line)
		}
		prev = n
		if strings.Contains(line, `le="+Inf"`) {
			inf = n
		}
	}
	wantBuckets := (promBucketHi-promBucketLo)/promBucketStep + 2
	if bucketLines != wantBuckets {
		t.Fatalf("bucket lines = %d, want %d", bucketLines, wantBuckets)
	}
	if inf != 100 {
		t.Fatalf("+Inf bucket = %d, want 100", inf)
	}

	// Each HELP/TYPE appears exactly once per family.
	if n := strings.Count(text, "# TYPE labd_requests_total "); n != 1 {
		t.Fatalf("TYPE repeated %d times", n)
	}

	// Families render sorted by name.
	var familyOrder []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			familyOrder = append(familyOrder, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(familyOrder); i++ {
		if familyOrder[i] < familyOrder[i-1] {
			t.Fatalf("families out of order: %v", familyOrder)
		}
	}
}

// TestRegistryDedup: registering the same (name, labels) twice returns
// the same underlying metric, and a second scrape-time gauge keeps the
// first one's series.
func TestRegistryDedup(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x", "")
	b := reg.Counter("x_total", "x", "")
	if a != b {
		t.Fatalf("counter not deduped")
	}
	h1 := reg.Histogram("y_seconds", "y", Label("k", "v"), 0)
	h2 := reg.Histogram("y_seconds", "y", Label("k", "v"), 0)
	if h1 != h2 {
		t.Fatalf("histogram not deduped")
	}
	reg.GaugeFunc("z", "z", "", func() int64 { return 1 })
	reg.GaugeFunc("z", "z", "", func() int64 { return 2 })
	if ss := reg.byName["z"].series; len(ss) != 1 || ss[0].fn() != 1 {
		t.Fatalf("gauge not deduped: %d series", len(ss))
	}
}
