package labd

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"time"

	"cs31/internal/memo"
)

// DefaultCacheBytes is the total memoization budget when Config.Cache
// leaves MaxBytes zero, split evenly across the cached endpoints.
const DefaultCacheBytes = 32 << 20

// cacheHeader reports how the memoization layer served a request:
// "hit" (pre-encoded bytes, no compute), "miss" (this request computed
// and populated the cache), "coalesced" (this request waited on another
// request's in-flight computation), or "bypass" (the request asked to
// skip the cache, or its response is not cacheable). The header is absent
// entirely when the endpoint has no cache configured.
const cacheHeader = "X-Labd-Cache"

// cachedEndpoints names every deterministic endpoint, in route order.
// These are the keys of Config.Cache.DisableEndpoints/EndpointBytes and
// of the labd.cache.* debug vars.
var cachedEndpoints = []string{"asm", "minic", "cache", "vm", "life", "homework", "survey"}

// CacheConfig sizes the response memoization layer.
type CacheConfig struct {
	// Disable turns memoization off entirely (every request computes).
	// A negative MaxBytes does the same, mirroring "-cache-bytes 0".
	Disable bool
	// MaxBytes is the total resident-byte budget, split evenly across
	// the enabled endpoints. Zero selects DefaultCacheBytes.
	MaxBytes int64
	// Shards is the shard count per endpoint cache (rounded up to a
	// power of two; zero selects memo's default of 8).
	Shards int
	// DisableEndpoints lists endpoint names (see cachedEndpoints) to
	// serve uncached while the rest stay memoized.
	DisableEndpoints []string
	// EndpointBytes overrides the per-endpoint byte budget by name.
	EndpointBytes map[string]int64
}

func (c *CacheConfig) fillDefaults() {
	if c.MaxBytes == 0 {
		c.MaxBytes = DefaultCacheBytes
	}
}

// initCaches builds one memo.Cache per enabled endpoint. Separate caches
// (rather than one shared keyspace) give per-endpoint capacity, per-
// endpoint hit ratios, and freedom to disable one endpoint without
// touching the rest.
func (s *Server) initCaches() {
	cc := s.cfg.Cache
	if cc.Disable || cc.MaxBytes < 0 {
		return
	}
	disabled := make(map[string]bool, len(cc.DisableEndpoints))
	for _, name := range cc.DisableEndpoints {
		disabled[strings.TrimSpace(name)] = true
	}
	var enabled []string
	for _, name := range cachedEndpoints {
		if !disabled[name] {
			enabled = append(enabled, name)
		}
	}
	if len(enabled) == 0 {
		return
	}
	share := cc.MaxBytes / int64(len(enabled))
	for _, name := range enabled {
		budget := share
		if v, ok := cc.EndpointBytes[name]; ok {
			budget = v
		}
		if budget < 0 {
			continue
		}
		s.caches[name] = memo.New(budget, cc.Shards)
	}
}

// bypassRequested honors the standard client opt-outs: Cache-Control
// no-cache (don't serve from cache) and no-store (don't populate it).
// labd treats both as a full bypass — the request neither reads nor
// writes the cache.
func bypassRequested(r *http.Request) bool {
	cc := r.Header.Get("Cache-Control")
	if cc == "" {
		return false
	}
	for _, directive := range strings.Split(cc, ",") {
		switch strings.TrimSpace(strings.ToLower(directive)) {
		case "no-cache", "no-store":
			return true
		}
	}
	return false
}

// encodeBody renders v exactly as writeJSON would put it on the wire
// (two-space indent, trailing newline), so cached bytes are bit-for-bit
// identical to a cold response: MarshalIndent escapes HTML as an Encoder
// does, and an Encoder's newline passes through its indent unchanged.
// The memo keeps the result and charges its length, so it is copied out
// of MarshalIndent's buffer, which has room for twice the compact size.
func encodeBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b)+1)
	copy(out, b)
	out[len(b)] = '\n'
	return out, nil
}

// serveCached is the memoized sibling of schedule: a resident key is
// written straight to the wire (no scheduler submit, no handler run, no
// re-encode), a missing key computes through the worker pool exactly as
// the uncached path would and caches the encoded bytes, and concurrent
// identical requests coalesce onto one in-flight computation — the
// waiters block here, in their own HTTP goroutines, never submitting to
// the scheduler, so they hold no worker slot while they wait.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint string, key uint64, cacheable bool, fn func(ctx context.Context) (any, error)) {
	c := s.caches[endpoint]
	if c == nil {
		s.schedule(w, r, fn)
		return
	}
	if !cacheable || bypassRequested(r) {
		w.Header().Set(cacheHeader, "bypass")
		s.schedule(w, r, fn)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	t0 := time.Now()
	body, outcome, err := c.Do(ctx, key, func() ([]byte, error) {
		var resp any
		var jobErr error
		err := s.sched.Submit(ctx, func(ctx context.Context) {
			resp, jobErr = fn(ctx)
		})
		if err == nil {
			err = jobErr
		}
		if err != nil {
			return nil, err
		}
		m0 := time.Now()
		b, encErr := encodeBody(resp)
		s.obs.observeMarshal(m0)
		return b, encErr
	})
	w.Header().Set(cacheHeader, outcome.String())
	if err == nil {
		s.obs.observeCacheOutcome(endpoint, outcome, time.Since(t0))
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// CacheSnapshot is one endpoint's memoization counters as exposed under
// labd.cache.* in /debug/vars.
type CacheSnapshot struct {
	Endpoint  string `json:"endpoint"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Coalesced int64  `json:"coalesced"`
	Evictions int64  `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Capacity  int64  `json:"capacity"`
	// HitRatio counts coalesced waiters as hits — they were served
	// without running the computation — over all requests that consulted
	// the cache.
	HitRatio float64 `json:"hit_ratio"`
}

// CacheStats snapshots every endpoint cache, sorted by endpoint name.
// Empty when memoization is disabled.
func (s *Server) CacheStats() []CacheSnapshot {
	snaps := make([]CacheSnapshot, 0, len(s.caches))
	for name, c := range s.caches {
		st := c.Stats()
		snap := CacheSnapshot{
			Endpoint:  name,
			Hits:      st.Hits,
			Misses:    st.Misses,
			Coalesced: st.Coalesced,
			Evictions: st.Evictions,
			Entries:   st.Entries,
			Bytes:     st.Bytes,
			Capacity:  st.Capacity,
		}
		if total := st.Hits + st.Misses + st.Coalesced; total > 0 {
			snap.HitRatio = float64(st.Hits+st.Coalesced) / float64(total)
		}
		snaps = append(snaps, snap)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Endpoint < snaps[j].Endpoint })
	return snaps
}
