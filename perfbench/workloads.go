package main

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/dpgraph"
)

// session opens the private session every workload publishes from: the
// production defaults, crypto noise, epsilon 1, index auto.
func (e *env) session() (*dpgraph.PrivateGraph, error) {
	return dpgraph.New(e.in.city.G, dpgraph.PrivateWeights(e.in.weights),
		dpgraph.WithEpsilon(epsilon), dpgraph.WithQueryIndex(dpgraph.IndexAuto))
}

func artifactMiB(p *publication) float64 { return float64(len(p.artifact)) / (1 << 20) }

// booted is a replica booted in process from an artifact.
type booted struct {
	oracle  dpgraph.DistanceOracle
	unsealS float64
	firstS  float64
}

// boot unseals pub's artifact with signature verification and answers
// the first query; it checks that the replica verified the signature,
// carries the origin's receipt, and spent no budget.
func (e *env) boot(pg *dpgraph.PrivateGraph, pub *publication) (*booted, error) {
	spent, _ := pg.Spent()
	b := &booted{}
	var sealed *dpgraph.Sealed
	var err error
	b.unsealS, err = e.rec.timed("snapshot.unseal", func() error {
		var err error
		sealed, err = dpgraph.Unseal(bytes.NewReader(pub.artifact), dpgraph.WithVerifyKey(e.key.Public().(ed25519.PublicKey)))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("unseal: %w", err)
	}
	b.oracle = sealed.Oracle()
	if e.cfg.plant {
		b.oracle = &faultyOracle{DistanceOracle: b.oracle}
	}
	p := e.in.errPairs[0]
	var first float64
	b.firstS, err = e.rec.timed("snapshot.first_answer", func() error {
		var err error
		first, err = b.oracle.Distance(p.S, p.T)
		return err
	})
	if err != nil {
		return nil, err
	}
	if want, err := pub.origin.Distance(p.S, p.T); err != nil || math.Float64bits(first) != math.Float64bits(want) {
		e.mismatch("boot: first answer %v for %v, origin %v (%v)", first, p, want, err)
	}
	want := pub.rel.Info().Receipt
	got := sealed.Info().Receipt
	if !sealed.Verified() || got.Mechanism != want.Mechanism || got.Epsilon != want.Epsilon || got.Delta != want.Delta || !got.Time.Equal(want.Time) {
		e.mismatch("boot: verified %v, receipt %+v, origin receipt %+v", sealed.Verified(), got, want)
	}
	if now, _ := pg.Spent(); now != spent {
		e.mismatch("boot: spent epsilon went from %g to %g", spent, now)
	}
	return b, nil
}

// faultyOracle answers its first query wrong; the self-test plants it
// to prove the checks catch a wrong answer.
type faultyOracle struct {
	dpgraph.DistanceOracle
	planted bool
}

func (f *faultyOracle) Distance(s, t int) (float64, error) {
	d, err := f.DistanceOracle.Distance(s, t)
	if !f.planted {
		f.planted = true
		d++
	}
	return d, err
}

// runPublish drives the write path. An operation is one whole pipeline,
// private weights to a booted replica's first answer, and setups run the
// same pipeline. Every setup but the first, the warm-up, is measured like
// an operation: latency_p50_ms, load.latency_p99_ms and publish_s per
// pipeline, abs_err_mean and artifact_mib per release, and
// pairs_per_cpu_s and load.pairs_per_s as how fast the freshly booted
// replica answers the error sample and 1,000,000 Zipf-popular pool
// trips. boot_s is the median of bootTimes' boots of every operation's
// artifact, and heap_mib the median over setups of the heap in use
// after each.
func runPublish(e *env) error {
	pg, err := e.session()
	if err != nil {
		return err
	}
	sample := e.zipfPairs(1000000)
	var setupS, heaps, pubS, opMS, bootS, errs, mib, rates, cpuRates []float64
	// pipeline runs the write path once from a collected heap and returns
	// its wall time less the collection between publishing and booting.
	pipeline := func() (*publication, *booted, float64, error) {
		runtime.GC()
		start := time.Now()
		pub, err := e.publish(pg)
		if err != nil {
			return nil, nil, 0, err
		}
		gcS := collect()
		b, err := e.boot(pg, pub)
		if err != nil {
			return nil, nil, 0, err
		}
		return pub, b, sinceS(start) - gcS, nil
	}
	measure := func(pub *publication, b *booted, wall float64) error {
		opMS = append(opMS, wall*1e3)
		pubS = append(pubS, pub.seconds())
		mib = append(mib, artifactMiB(pub))
		meanErr, err := e.checkRelease(pub)
		if err != nil {
			return err
		}
		errs = append(errs, meanErr)
		rate, cpuRate, err := e.answerSample(pub, b, sample)
		if err != nil {
			return err
		}
		rates = append(rates, rate)
		cpuRates = append(cpuRates, cpuRate)
		return nil
	}
	var warm *booted
	for i := 0; i < e.cfg.setups; i++ {
		warm = nil
		pub, b, wall, err := pipeline()
		if err != nil {
			return err
		}
		warm = b
		setupS = append(setupS, wall)
		// The heap held by the publication and its replica. Unseal
		// grows the replica's arrays by append, so the heap steps by a
		// growth increment (7.3 MiB here) with releases whose label
		// count crosses a growth boundary; the median over the setups'
		// releases keeps one such release from moving heap_mib.
		heaps = append(heaps, heapMiB())
		if i > 0 {
			if err := measure(pub, b, wall); err != nil {
				return err
			}
		}
	}
	e.set("setup_s", median(setupS))
	e.set("heap_mib", median(heaps))
	runtime.KeepAlive(warm)
	warm = nil

	ops := 0
	var pubs []*publication // timings of all but the last operation
	var last *publication
	var lastBoot *booted
	deadline := time.Now().Add(time.Duration(e.cfg.seconds * float64(time.Second)))
	for ops == 0 || time.Now().Before(deadline) {
		if last != nil {
			pubs = append(pubs, &publication{releaseS: last.releaseS, indexS: last.indexS, sealS: last.sealS})
		}
		last, lastBoot = nil, nil
		e.attempted.Add(1)
		ops++
		pub, b, wall, err := pipeline()
		if err != nil {
			return err
		}
		more, err := bootTimes(func() (float64, error) {
			b, err := e.boot(pg, pub)
			if err != nil {
				return 0, err
			}
			return b.unsealS + b.firstS, nil
		})
		if err != nil {
			return err
		}
		bootS = append(bootS, more...)
		if err := measure(pub, b, wall); err != nil {
			return err
		}
		last, lastBoot = pub, b
	}
	fmt.Fprintf(e.out, "phase publish        %d operations and %d setups; per pipeline p50 %.1f ms, max %.1f ms; %d boots\n", ops, len(opMS)-ops, median(opMS), quantile(append([]float64(nil), opMS...), 1), len(bootS))
	e.set("publish_s", median(pubS))
	e.set("boot_s", median(bootS))
	e.set("abs_err_mean", mean(errs))
	e.set("artifact_mib", median(mib))
	e.set("latency_p50_ms", quantile(append([]float64(nil), opMS...), 0.5))
	e.set("load.latency_p99_ms", quantile(append([]float64(nil), opMS...), 0.99))
	e.set("load.pairs_per_s", median(rates))
	e.set("pairs_per_cpu_s", median(cpuRates))
	if !e.cfg.trace {
		return nil
	}
	if h, l, ok := cacheStats(lastBoot.oracle); ok {
		e.set("dpgraph.cache_hit_ratio", ratio(h, l))
	}
	lastBoot = nil
	pubs = append(pubs, last)
	if err := e.libraryLayers(pg, pubs, e.in.errPairs, chunk(e.in.errPairs, e.cfg.batchSize)); err != nil {
		return err
	}
	st, err := e.newStack(pg, last, filepath.Join(e.cfg.workDir, "probe"))
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.computeExpected(e.in); err != nil {
		return err
	}
	return e.probeLayers(st)
}

// answerSample has the freshly booted replica answer the error sample
// and then sample, one point query each, checks every answer bit for
// bit against the origin oracle, and returns the replica's pairs per
// second and per CPU-second.
func (e *env) answerSample(pub *publication, b *booted, sample []dpgraph.VertexPair) (float64, float64, error) {
	pairs := append(append([]dpgraph.VertexPair(nil), e.in.errPairs...), sample...)
	want, err := pub.origin.Distances(pairs)
	if err != nil {
		return 0, 0, err
	}
	got := make([]float64, len(pairs))
	runtime.GC()
	cpu0 := cpuSeconds()
	start := time.Now()
	for i, p := range pairs {
		if got[i], err = b.oracle.Distance(p.S, p.T); err != nil {
			return 0, 0, err
		}
	}
	wall, cpu := sinceS(start), cpuSeconds()-cpu0
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			e.mismatch("unsealed oracle answers %v for %v, origin %v", got[i], pairs[i], want[i])
		}
	}
	n := float64(len(got))
	return n / wall, n / cpu, nil
}

func chunk(pairs []dpgraph.VertexPair, size int) [][]dpgraph.VertexPair {
	var out [][]dpgraph.VertexPair
	for len(pairs) > 0 {
		n := min(size, len(pairs))
		out = append(out, pairs[:n])
		pairs = pairs[n:]
	}
	return out
}

// serveSetups runs the configured number of setups of the serving
// stack, each a fresh publication, two replicas booted from its
// artifact, the coordinator, and warm-up traffic, and returns the last
// one still running. It records the end-to-end metrics of the write
// path from these setups. boot_s is the median of bootTimes' boots of
// each setup's artifact, after the setup's clock has stopped; the
// replicas' own boots are part of setup_s.
func (e *env) serveSetups(pg *dpgraph.PrivateGraph, warm func(st *stack, setup int) error) (*stack, []*publication, error) {
	var setupS, pubS, bootS, errs, mib []float64
	var pubs []*publication
	var st *stack
	for i := 0; i < e.cfg.setups; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		start := time.Now()
		pub, err := e.publish(pg)
		if err != nil {
			return nil, nil, err
		}
		dir := filepath.Join(e.cfg.workDir, "boot"+strconv.Itoa(i))
		if st, err = e.newStack(pg, pub, dir); err != nil {
			return nil, nil, err
		}
		expS, err := e.rec.timed("check.expected", func() error { return st.computeExpected(e.in) })
		if err != nil {
			st.close()
			return nil, nil, err
		}
		if err := warm(st, i); err != nil {
			st.close()
			return nil, nil, err
		}
		setupS = append(setupS, sinceS(start)-expS-st.gcS)
		more, err := bootTimes(func() (float64, error) {
			_, _, sec, err := e.restore(dir)
			return sec, err
		})
		if err != nil {
			st.close()
			return nil, nil, err
		}
		pubS = append(pubS, pub.seconds())
		bootS = append(bootS, more...)
		mib = append(mib, artifactMiB(pub))
		pubs = append(pubs, pub)
		meanErr, err := e.checkRelease(pub)
		if err != nil {
			st.close()
			return nil, nil, err
		}
		errs = append(errs, meanErr)
	}
	e.set("setup_s", median(setupS))
	e.set("publish_s", median(pubS))
	e.set("boot_s", median(bootS))
	e.set("abs_err_mean", mean(errs))
	e.set("artifact_mib", median(mib))
	e.set("heap_mib", heapMiB())
	// Only the last publication stays reachable through the running
	// stack; keep the others' timings, not their memory.
	for i := range pubs[:len(pubs)-1] {
		pubs[i] = &publication{releaseS: pubs[i].releaseS, indexS: pubs[i].indexS, sealS: pubs[i].sealS}
	}
	return st, pubs, nil
}

// pointOp sends Zipf-popular pool trips as GET point queries to base and
// checks every answer bit for bit against the origin oracle.
func (e *env) pointOp(st *stack, base string, salt int64) op {
	clients := e.cfg.clients
	zipfs := make([]*rand.Zipf, clients)
	trip := make([]int, clients) // pool index of each client's request in flight
	vals := make([][]float64, clients)
	for c := range zipfs {
		r := rand.New(rand.NewSource(e.cfg.seed*1_000_003 + salt*1009 + int64(c)))
		zipfs[c] = rand.NewZipf(r, e.cfg.zipfS, 1, uint64(len(e.in.pool)-1))
	}
	return op{
		client: st.client,
		prepare: func(c, k int) (request, bool) {
			trip[c] = int(zipfs[c].Uint64())
			return request{method: "GET", url: base + distancePath + e.in.poolURLs[trip[c]]}, true
		},
		check: func(c int, answer []byte) int {
			i := trip[c]
			var err error
			vals[c], err = parseValues(answer, vals[c][:0])
			if err != nil || len(vals[c]) != 1 {
				e.mismatch("point %v: unreadable answer %.200q (%v)", e.in.pool[i], answer, err)
			} else if math.Float64bits(vals[c][0]) != math.Float64bits(st.expected[i]) {
				e.mismatch("point %v: answered %v, origin %v", e.in.pool[i], vals[c][0], st.expected[i])
			}
			return 1
		},
	}
}

// warmPoint sends the warm-up point traffic to base.
func (e *env) warmPoint(st *stack, base string, setup int) error {
	p := e.runLoop("warmup", 0, time.Minute, max(1, e.cfg.warmRequests/e.cfg.clients), e.pointOp(st, base, int64(100+setup)))
	return p.firstErr
}

func runPoint(e *env) error  { return e.runPointTraffic(false) }
func runRouted(e *env) error { return e.runPointTraffic(true) }

// runPointTraffic drives point (direct to one replica) or routed
// (through the coordinator) traffic: an open loop at the fixed rate,
// reported by phase and, in traced runs, as the generator's lateness,
// then a closed loop that gives the latency and throughput metrics.
// Open-loop latencies on a small shared host are dominated by how late
// idle threads wake, not by the program, and are too unsteady to bound.
func (e *env) runPointTraffic(routed bool) error {
	pg, err := e.session()
	if err != nil {
		return err
	}
	target := func(st *stack) string {
		if routed {
			return st.coordURL
		}
		return st.replicas[0].url
	}
	st, pubs, err := e.serveSetups(pg, func(st *stack, setup int) error { return e.warmPoint(st, target(st), setup) })
	if err != nil {
		return err
	}
	defer st.close()
	base := target(st)
	openDur := time.Duration(e.cfg.seconds / 4 * float64(time.Second))
	closedDur := time.Duration(e.cfg.seconds * 3 / 4 * float64(time.Second))
	op := e.pointOp(st, base, 1)
	m := e.beginMain(st)
	var open, openTraced, closed, closedTraced *phase
	if e.cfg.trace {
		open = e.runLoop("open", e.cfg.pointRate, openDur/2, 0, op)
		closed = e.runLoop("closed", 0, closedDur/2, 0, op)
		e.tracing.Store(true)
		openTraced = e.runLoop("open-traced", e.cfg.pointRate, openDur/2, 0, op)
		closedTraced = e.runLoop("closed-traced", 0, closedDur/2, 0, op)
		e.tracing.Store(false)
	} else {
		open = e.runLoop("open", e.cfg.pointRate, openDur, 0, op)
		closed = e.runLoop("closed", 0, closedDur, 0, op)
	}
	lat := closed.latencies()
	e.set("latency_p50_ms", windowed(lat, e.cfg.windows, 0.5))
	e.set("load.latency_p99_ms", windowed(lat, e.cfg.windows, 0.99))
	e.set("load.pairs_per_s", closed.pairsPerSecond())
	e.set("pairs_per_cpu_s", float64(closed.pairs)/closed.cpu)
	if routed {
		if err := e.checkRoutedEqualsDirect(st); err != nil {
			return err
		}
	}
	if err := m.end(e, routed, closed, closedTraced); err != nil {
		return err
	}
	if !e.cfg.trace {
		return nil
	}
	e.set("load.lateness_p99_ms", windowed(lateness(open, openTraced), e.cfg.windows, 0.99))
	pairs := e.zipfPairs(20000)
	if err := e.libraryLayers(pg, pubs, pairs, chunk(pairs, e.cfg.batchSize)); err != nil {
		return err
	}
	if err := e.handlerLayers(st.replicas[0], e.pointRequests(2000)); err != nil {
		return err
	}
	if routed {
		e.spanLayers()
		return nil
	}
	return e.probeLayers(st)
}

func lateness(phases ...*phase) []float64 {
	var out []float64
	for _, p := range phases {
		if p != nil {
			out = append(out, p.lateness()...)
		}
	}
	return out
}

// checkRoutedEqualsDirect asks the coordinator and a replica directly
// for the same trips and checks the answers agree bit for bit.
func (e *env) checkRoutedEqualsDirect(st *stack) error {
	var a, b bytes.Buffer
	for i := 0; i < min(256, len(e.in.pool)); i++ {
		if _, err := e.send(st.client, request{method: "GET", url: st.coordURL + distancePath + e.in.poolURLs[i]}, &a); err != nil {
			return err
		}
		if _, err := e.send(st.client, request{method: "GET", url: st.replicas[1].url + distancePath + e.in.poolURLs[i]}, &b); err != nil {
			return err
		}
		va, errA := parseValues(a.Bytes(), nil)
		vb, errB := parseValues(b.Bytes(), nil)
		if errA != nil || errB != nil || len(va) != 1 || len(vb) != 1 || math.Float64bits(va[0]) != math.Float64bits(vb[0]) {
			e.mismatch("routed %.200q differs from direct %.200q", a.Bytes(), b.Bytes())
		}
	}
	return nil
}

// batchCheck is one batch answer kept for the check after the phase.
type batchCheck struct {
	gen *batchGen
	k   int
	sum uint64
}

// batchOp POSTs batch pick(c, k) as a JSON tuple body to base. Every
// answer must carry one value per pair, and is kept, as a checksum of
// its exact bits, for verifyBatches.
func (e *env) batchOp(st *stack, base string, pick func(c, k int) (*batchGen, int), kept *[][]batchCheck) op {
	clients := e.cfg.clients
	pairs := make([][]dpgraph.VertexPair, clients)
	bodies := make([][]byte, clients)
	inFlight := make([]batchCheck, clients)
	vals := make([][]float64, clients)
	*kept = make([][]batchCheck, clients)
	return op{
		client: st.client,
		prepare: func(c, k int) (request, bool) {
			g, j := pick(c, k)
			if j >= g.limit() {
				return request{}, false
			}
			inFlight[c] = batchCheck{gen: g, k: j}
			pairs[c] = g.batch(j, pairs[c])
			b := append(bodies[c][:0], '[')
			for i, p := range pairs[c] {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, '[')
				b = strconv.AppendInt(b, int64(p.S), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(p.T), 10)
				b = append(b, ']')
			}
			bodies[c] = append(b, ']')
			return request{method: "POST", url: base + distancesPath, body: bodies[c]}, true
		},
		check: func(c int, answer []byte) int {
			bc := inFlight[c]
			var err error
			vals[c], err = parseValues(answer, vals[c][:0])
			if err != nil || len(vals[c]) != len(pairs[c]) {
				e.mismatch("batch %d: %d values for %d pairs (%v)", bc.k, len(vals[c]), len(pairs[c]), err)
			} else {
				bc.sum = checksum(vals[c])
				(*kept)[c] = append((*kept)[c], bc)
			}
			return len(pairs[c])
		},
	}
}

// verifyBatches recomputes every kept batch on the origin oracle, one
// goroutine per client's list, and checks the served answers were
// identical bit for bit.
func (e *env) verifyBatches(st *stack, kept [][]batchCheck) error {
	start := time.Now()
	errs := make([]error, len(kept))
	var wg sync.WaitGroup
	checked := 0
	for i, list := range kept {
		checked += len(list)
		wg.Add(1)
		go func(i int, list []batchCheck) {
			defer wg.Done()
			var pairs []dpgraph.VertexPair
			for _, bc := range list {
				pairs = bc.gen.batch(bc.k, pairs)
				want, err := st.pub.origin.Distances(pairs)
				if err != nil {
					errs[i] = err
					return
				}
				if checksum(want) != bc.sum {
					e.mismatch("batch %d: answers differ from the origin oracle", bc.k)
				}
			}
		}(i, list)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "checked all %d batches bit for bit against the origin oracle in %.2f s\n", checked, sinceS(start))
	return nil
}

// runBatch drives closed-loop batch traffic at one replica; latency and
// pairs_per_s both come from the closed loop.
func runBatch(e *env) error {
	pg, err := e.session()
	if err != nil {
		return err
	}
	clients := e.cfg.clients
	// Client c sends the batches of partition c; partition clients
	// holds the warm-up batches, each setup its own slice of them, and
	// after those the in-process handler batches of a traced run.
	gens := make([]*batchGen, clients+1)
	for c := range gens {
		gens[c] = newBatchGen(e.in, e.cfg.batchSize, c, clients+1)
	}
	warmBatches := max(clients, e.cfg.warmRequests/20)
	warmGen := gens[clients]
	st, pubs, err := e.serveSetups(pg, func(st *stack, setup int) error {
		var kept [][]batchCheck
		offset := setup * warmBatches
		op := e.batchOp(st, st.replicas[0].url, func(c, k int) (*batchGen, int) { return warmGen, offset + k*clients + c }, &kept)
		p := e.runLoop("warmup", 0, time.Minute, warmBatches/clients, op)
		if p.firstErr != nil {
			return p.firstErr
		}
		return e.verifyBatches(st, kept)
	})
	if err != nil {
		return err
	}
	defer st.close()
	var kept [][]batchCheck
	op := e.batchOp(st, st.replicas[0].url, func(c, k int) (*batchGen, int) { return gens[c], k }, &kept)
	dur := time.Duration(e.cfg.seconds * float64(time.Second))
	m := e.beginMain(st)
	var closed, traced *phase
	if e.cfg.trace {
		closed = e.runLoop("closed", 0, dur/2, 0, op)
		// The traced half starts halfway into each client's batch
		// sequence, past every batch the untraced half sent.
		var keptT [][]batchCheck
		opT := e.batchOp(st, st.replicas[0].url, func(c, k int) (*batchGen, int) { return gens[c], gens[c].limit()/2 + k }, &keptT)
		e.tracing.Store(true)
		traced = e.runLoop("closed-traced", 0, dur/2, 0, opT)
		e.tracing.Store(false)
		kept = append(kept, keptT...)
	} else {
		closed = e.runLoop("closed", 0, dur, 0, op)
	}
	if err := e.verifyBatches(st, kept); err != nil {
		return err
	}
	lat := closed.latencies()
	e.set("latency_p50_ms", windowed(lat, e.cfg.windows, 0.5))
	e.set("load.latency_p99_ms", windowed(lat, e.cfg.windows, 0.99))
	e.set("load.pairs_per_s", closed.pairsPerSecond())
	e.set("pairs_per_cpu_s", float64(closed.pairs)/closed.cpu)
	if err := m.end(e, false, closed, traced); err != nil {
		return err
	}
	if !e.cfg.trace {
		return nil
	}
	next := (e.cfg.setups + 1) * warmBatches
	var batches [][]dpgraph.VertexPair
	for k := 0; k < 64; k++ {
		batches = append(batches, warmGen.batch(next+k, nil))
	}
	var pairs []dpgraph.VertexPair
	for _, b := range batches {
		pairs = append(pairs, b...)
	}
	if err := e.libraryLayers(pg, pubs, pairs, batches); err != nil {
		return err
	}
	reqs, err := batchRequests(warmGen, next+len(batches), 500)
	if err != nil {
		return err
	}
	if err := e.handlerLayers(st.replicas[0], reqs); err != nil {
		return err
	}
	return e.probeLayers(st)
}
