package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/dpgraph"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/graph/index"
	"repro/internal/snapshot"
)

// This file measures the per-layer metrics of a traced run. Each layer
// is measured where the workload drives it: by timed direct calls into
// the library layers, by in-process calls of the replica handler, from
// the counters /metrics exposes, and from the spans the wrappers in
// trace.go record. Layers a workload does not drive over HTTP (the
// coordinator for point and batch, every HTTP layer for publish) are
// measured by a short routed probe at the end of the traced run, so
// every traced run reports every layer.

// mainMeasure holds the counters read when the measured phases begin.
type mainMeasure struct {
	st           *stack
	hits, looks  float64
	coord        coordCounts
	gc           uint32
	cacheErr     error
	coordErr     error
	requestsBase int64
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// beginMain reads the counters before the measured phases and tags the
// spans that follow as the workload's own.
func (e *env) beginMain(st *stack) *mainMeasure {
	m := &mainMeasure{st: st}
	m.hits, m.looks, m.cacheErr = st.cacheCounts()
	m.coord, m.coordErr = st.coordCounts()
	m.gc = numGC()
	m.requestsBase = e.attempted.Load()
	if e.rec != nil {
		e.rec.setPhase("main")
	}
	return m
}

// end derives the per-layer metrics of the measured phases: the cache
// hit ratio and collections per request, the coordinator's routing
// counters when the traffic was routed, and the tracing overhead, the
// median latency of the traced half minus that of the untraced half.
func (m *mainMeasure) end(e *env, routed bool, untraced, traced *phase) error {
	if e.rec != nil {
		e.rec.setPhase("")
	}
	requests := float64(e.attempted.Load() - m.requestsBase)
	e.set("runtime.gc_per_10k_req", float64(numGC()-m.gc)/requests*1e4)
	hits, looks, err := m.st.cacheCounts()
	if err != nil || m.cacheErr != nil {
		return fmt.Errorf("replica metrics: %v %v", err, m.cacheErr)
	}
	e.set("dpgraph.cache_hit_ratio", ratio(hits-m.hits, looks-m.looks))
	if routed {
		c, err := m.st.coordCounts()
		if err != nil || m.coordErr != nil {
			return fmt.Errorf("coordinator metrics: %v %v", err, m.coordErr)
		}
		e.setCluster(m.coord, c)
	}
	if traced != nil {
		e.set("trace.overhead_us", (median(traced.latencies())-median(untraced.latencies()))*1e3)
	}
	return nil
}

// setCluster records the coordinator's routing counters per request
// between two readings.
func (e *env) setCluster(a, b coordCounts) {
	req := b.Requests - a.Requests
	e.set("cluster.attempts_per_req", ratio(b.Proxied-a.Proxied, req))
	e.set("cluster.hedges_per_req", ratio(b.Hedges-a.Hedges, req))
	e.set("cluster.hedge_win_ratio", ratio(b.HedgeWins-a.HedgeWins, b.Hedges-a.Hedges))
	e.set("cluster.retries_per_req", ratio(b.Retries-a.Retries, req))
}

// setDefault sets name unless the workload measured it already.
func (e *env) setDefault(name string, v float64) {
	if _, ok := e.values[name]; !ok {
		e.values[name] = v
	}
}

// libraryLayers measures the library layers by direct calls: noise
// fill, release, the split of the auto index build into contraction and
// labelling, seal and unseal, the index's shape, and point and batch
// queries on the workload's pairs against a freshly booted oracle.
// pubs carries the timings of every publication of the run; the last
// one is complete.
func (e *env) libraryLayers(pg *dpgraph.PrivateGraph, pubs []*publication, pairs []dpgraph.VertexPair, batches [][]dpgraph.VertexPair) error {
	last := pubs[len(pubs)-1]
	var rel, seal []float64
	for _, p := range pubs {
		rel = append(rel, p.releaseS*1e3)
		seal = append(seal, p.sealS)
	}
	e.set("dpgraph.release_ms", median(rel))
	e.set("snapshot.seal_s", median(seal))

	noise := dp.NewCryptoNoise()
	draws := make([]float64, len(last.rel.Weights))
	var fill []float64
	for i := 0; i < 5; i++ {
		s, _ := e.rec.timed("dp.fill", func() error {
			noise.FillLaplace(last.rel.Info().NoiseScale, draws)
			return nil
		})
		fill = append(fill, s*1e9/float64(len(draws)))
	}
	e.set("dp.fill_ns_per_draw", median(fill))

	g := e.in.city.G
	w := graph.ClampWeights(last.rel.Weights, 0, graph.Inf)
	chS, err := e.rec.timed("index.build_ch", func() error {
		_, err := index.Build(g, w, index.Options{Mode: index.CH})
		return err
	})
	if err != nil {
		return err
	}
	e.set("index.ch_build_s", chS)
	e.set("index.hl_label_s", last.indexS-chS)

	b, err := e.boot(pg, last)
	if err != nil {
		return err
	}
	e.set("snapshot.unseal_verify_s", b.unsealS)
	e.set("snapshot.first_answer_ms", b.firstS*1e3)

	art, _, err := snapshot.Read(bytes.NewReader(last.artifact), snapshot.ReadOptions{})
	if err != nil {
		return err
	}
	idx, err := index.Rehydrate(g, art.Weights, &index.FlatIndex{
		Kind: art.Meta.Index, UpOff: art.CHUpOff, UpTo: art.CHUpTo, UpWt: art.CHUpWt,
		Landmarks: art.Meta.Landmarks, LD: art.ALTLandmarks,
		LabOff: art.HLLabOff, LabHub: art.HLLabHub, LabDist: art.HLLabDist,
	})
	if err != nil {
		return err
	}
	flat, err := index.Export(idx)
	if err != nil {
		return err
	}
	// The city has no parallel edges or loops, so every upward edge
	// beyond one per road segment is a shortcut.
	e.set("index.shortcuts_per_edge", float64(len(flat.UpTo)-g.M())/float64(g.M()))
	e.set("index.label_entries_per_vertex", float64(len(flat.LabHub))/float64(g.N()))

	hl, _ := e.rec.timed("index.query", func() error {
		for _, p := range pairs {
			idx.Distance(p.S, p.T)
		}
		return nil
	})
	e.set("index.hl_query_ns", hl*1e9/float64(len(pairs)))
	pt, err := e.rec.timed("dpgraph.point", func() error {
		for _, p := range pairs {
			if _, err := b.oracle.Distance(p.S, p.T); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.set("dpgraph.point_ns", pt*1e9/float64(len(pairs)))

	var batchUS []float64
	swept, total := 0, 0
	minSweep := 0
	if s, ok := b.oracle.(interface{ MinSweepTargets() int }); ok {
		minSweep = s.MinSweepTargets()
	}
	for _, batch := range batches {
		s, err := e.rec.timed("dpgraph.batch", func() error {
			_, err := b.oracle.Distances(batch)
			return err
		})
		if err != nil {
			return err
		}
		batchUS = append(batchUS, s*1e6)
		swept += sweptPairs(batch, minSweep)
		total += len(batch)
	}
	e.set("dpgraph.batch_us", median(batchUS))
	e.set("dpgraph.sweep_share", ratio(float64(swept), float64(total)))
	return nil
}

// sweptPairs counts the pairs of batch in source runs with at least
// minSweep distinct targets, the runs the oracle answers with one
// one-to-all sweep (none when minSweep is 0: the oracle cannot sweep).
func sweptPairs(batch []dpgraph.VertexPair, minSweep int) int {
	if minSweep == 0 {
		return 0
	}
	targets := map[int]map[int]bool{}
	count := map[int]int{}
	for _, p := range batch {
		if targets[p.S] == nil {
			targets[p.S] = map[int]bool{}
		}
		targets[p.S][p.T] = true
		count[p.S]++
	}
	n := 0
	for s, ts := range targets {
		if len(ts) >= minSweep {
			n += count[s]
		}
	}
	return n
}

// cacheStats reads an oracle's result-cache counters when it has them.
func cacheStats(o dpgraph.DistanceOracle) (hits, lookups float64, ok bool) {
	c, ok := o.(interface{ CacheStats() (uint64, uint64, bool) })
	if !ok {
		return 0, 0, false
	}
	h, m, ok := c.CacheStats()
	return float64(h), float64(h + m), ok
}

// zipfPairs draws n trips from the pool with the point traffic's Zipf
// popularity.
func (e *env) zipfPairs(n int) []dpgraph.VertexPair {
	z := rand.NewZipf(rand.New(rand.NewSource(e.cfg.seed*1_000_003+7)), e.cfg.zipfS, 1, uint64(len(e.in.pool)-1))
	out := make([]dpgraph.VertexPair, n)
	for i := range out {
		out[i] = e.in.pool[z.Uint64()]
	}
	return out
}

// pointRequests builds n in-process point requests for Zipf-popular
// pool trips.
func (e *env) pointRequests(n int) []*http.Request {
	z := rand.NewZipf(rand.New(rand.NewSource(e.cfg.seed*1_000_003+11)), e.cfg.zipfS, 1, uint64(len(e.in.pool)-1))
	out := make([]*http.Request, n)
	for i := range out {
		out[i] = httptest.NewRequest(http.MethodGet, distancePath+e.in.poolURLs[z.Uint64()], nil)
	}
	return out
}

// batchRequests builds n in-process batch requests from batches from,
// from+1, ... of g.
func batchRequests(g *batchGen, from, n int) ([]*http.Request, error) {
	if from+n > g.limit() {
		return nil, fmt.Errorf("batch traffic ran out of distinct pairs")
	}
	out := make([]*http.Request, n)
	var pairs []dpgraph.VertexPair
	for i := range out {
		pairs = g.batch(from+i, pairs)
		var b bytes.Buffer
		b.WriteByte('[')
		for j, p := range pairs {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d]", p.S, p.T)
		}
		b.WriteByte(']')
		out[i] = httptest.NewRequest(http.MethodPost, distancesPath, &b)
		out[i].Header.Set("Content-Type", "application/json")
	}
	return out, nil
}

// discardWriter is a reusable ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// handlerLayers calls the replica's handler in process, with no socket,
// and records its time and allocations per request.
func (e *env) handlerLayers(rep *replica, reqs []*http.Request) error {
	h := rep.srv.Handler()
	w := &discardWriter{h: http.Header{}}
	lat := make([]float64, 0, len(reqs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		w.code = http.StatusOK
		start := time.Now()
		h.ServeHTTP(w, r)
		lat = append(lat, float64(time.Since(start))/1e3)
		if w.code != http.StatusOK {
			return fmt.Errorf("in-process %s %s: status %d", r.Method, r.URL, w.code)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(reqs))
	e.set("serve.handler_us", median(lat))
	e.set("serve.allocs_per_req", float64(after.Mallocs-before.Mallocs)/n)
	e.set("serve.bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/n)
	return nil
}

// probeLayers runs the routed probe, an open loop at the point rate
// through the coordinator, half untraced and half traced, and records
// from it every per-layer metric the workload has not measured itself.
func (e *env) probeLayers(st *stack) error {
	op := e.pointOp(st, st.coordURL, 2)
	half := time.Duration(e.cfg.probeSeconds / 2 * float64(time.Second))
	c0, err := st.coordCounts()
	if err != nil {
		return err
	}
	gc0, base := numGC(), e.attempted.Load()
	e.rec.setPhase("probe")
	untraced := e.runLoop("probe", e.cfg.pointRate, half, 0, op)
	e.tracing.Store(true)
	traced := e.runLoop("probe-traced", e.cfg.pointRate, half, 0, op)
	e.tracing.Store(false)
	e.rec.setPhase("")
	c1, err := st.coordCounts()
	if err != nil {
		return err
	}
	if _, ok := e.values["cluster.attempts_per_req"]; !ok {
		e.setCluster(c0, c1)
	}
	e.setDefault("runtime.gc_per_10k_req", float64(numGC()-gc0)/float64(e.attempted.Load()-base)*1e4)
	e.setDefault("load.lateness_p99_ms", windowed(lateness(untraced, traced), e.cfg.windows, 0.99))
	e.setDefault("trace.overhead_us", (median(traced.latencies())-median(untraced.latencies()))*1e3)
	if _, ok := e.values["serve.handler_us"]; !ok {
		if err := e.handlerLayers(st.replicas[0], e.pointRequests(2000)); err != nil {
			return err
		}
	}
	e.spanLayers()
	return nil
}

// spanLayers derives the span metrics: self time per layer, the HTTP
// overhead of the client's exchange, and the coordinator hop, from the
// workload's own spans where it has them and from the probe's
// otherwise.
func (e *env) spanLayers() {
	spans := e.rec.snapshot()
	main, probe := summarize(spans, "main"), summarize(spans, "probe")
	pick := func(get func(*layerStats) float64) float64 {
		for _, s := range []*layerStats{main, probe} {
			if s == nil {
				continue
			}
			if v := get(s); !math.IsNaN(v) {
				return v
			}
		}
		return math.NaN()
	}
	self := func(name string) func(*layerStats) float64 {
		return func(s *layerStats) float64 {
			if v, ok := s.selfUS[name]; ok {
				return v
			}
			return math.NaN()
		}
	}
	e.set("trace.client_self_us", pick(self(spanClient)))
	e.set("trace.cluster_self_us", pick(self(spanCluster)))
	e.set("trace.attempt_self_us", pick(self(spanAttempt)))
	e.set("trace.serve_self_us", pick(self(spanServe)))
	e.set("serve.http_overhead_us", pick(func(s *layerStats) float64 { return s.overheadUS }))
	e.set("cluster.hop_us", pick(func(s *layerStats) float64 { return s.hopUS }))
}
