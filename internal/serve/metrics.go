package serve

import (
	"sort"
	"sync/atomic"
	"time"
)

// releaseMetrics counts one release's serving traffic. Counters are
// atomics so the query hot path never takes a lock; the latency
// sampler keeps a fixed ring of recent per-query latencies from which
// /metrics computes quantiles on demand.
type releaseMetrics struct {
	queries   atomic.Uint64 // distance queries answered (batch pairs count individually)
	requests  atomic.Uint64 // HTTP requests served (a batch is one request)
	errors    atomic.Uint64 // malformed or failed requests (bad pairs, out of range)
	rejected  atomic.Uint64 // requests shed by admission control (429)
	latencies latencyRing
}

// observe records one served request: n answered pairs in d.
func (m *releaseMetrics) observe(n int, d time.Duration) {
	m.requests.Add(1)
	m.queries.Add(uint64(n))
	m.latencies.record(d)
}

// latencyRing is a bounded lock-free ring of recent request latencies.
// Writers claim slots with one atomic add; quantile reads copy the ring
// and sort. A read racing a writer observes either the old or the new
// sample of a slot — both valid — so the hot path stays wait-free and
// -race-clean without a lock.
type latencyRing struct {
	n    atomic.Uint64
	ring [latencySamples]atomic.Int64
}

const latencySamples = 4096 // power of two keeps the modulo cheap

func (l *latencyRing) record(d time.Duration) {
	i := l.n.Add(1) - 1
	l.ring[i%latencySamples].Store(int64(d))
}

// quantiles returns the p50/p90/p99 of the sampled latencies in
// nanoseconds, zeros when nothing was recorded yet.
func (l *latencyRing) quantiles() (p50, p90, p99 int64) {
	n := l.n.Load()
	if n == 0 {
		return 0, 0, 0
	}
	if n > latencySamples {
		n = latencySamples
	}
	buf := make([]int64, n)
	for i := range buf {
		buf[i] = l.ring[i].Load()
	}
	sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
	at := func(q float64) int64 {
		i := int(q * float64(len(buf)-1))
		return buf[i]
	}
	return at(0.50), at(0.90), at(0.99)
}

// metricsSnapshot is the JSON shape of one release's /metrics entry.
type metricsSnapshot struct {
	Requests    uint64 `json:"requests"`
	Queries     uint64 `json:"queries"`
	Errors      uint64 `json:"errors"`
	Rejected429 uint64 `json:"rejected_429"`
	// CacheHits and CacheMisses count result-cache lookups, which
	// only point queries make.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	LatencyNS   struct {
		P50 int64 `json:"p50"`
		P90 int64 `json:"p90"`
		P99 int64 `json:"p99"`
	} `json:"latency_ns"`
}

func (m *releaseMetrics) snapshot(cacheHits, cacheMisses uint64) metricsSnapshot {
	var s metricsSnapshot
	s.Requests = m.requests.Load()
	s.Queries = m.queries.Load()
	s.Errors = m.errors.Load()
	s.Rejected429 = m.rejected.Load()
	s.CacheHits = cacheHits
	s.CacheMisses = cacheMisses
	s.LatencyNS.P50, s.LatencyNS.P90, s.LatencyNS.P99 = m.latencies.quantiles()
	return s
}
