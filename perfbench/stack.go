package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/dpgraph"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// releaseName is the name replicas serve the release under; the artifact
// file is releaseName + ".dpsnap" so serve.Server.RestoreDir finds it.
const releaseName = "city"

// epsilon is the production default privacy parameter of a release.
const epsilon = 1.0

// publication is one run of the write path: private weights to a
// signed artifact.
type publication struct {
	rel      *dpgraph.SyntheticGraph
	origin   dpgraph.DistanceOracle
	artifact []byte
	releaseS float64 // PrivateGraph.Release
	indexS   float64 // first Oracle call: the auto index build
	sealS    float64 // signed Seal
}

func (p *publication) seconds() float64 { return p.releaseS + p.indexS + p.sealS }

// publish releases, indexes and seals once, and checks that the release
// added exactly one receipt of epsilon.
func (e *env) publish(pg *dpgraph.PrivateGraph) (*publication, error) {
	before := len(pg.Receipts())
	p := &publication{}
	var err error
	p.releaseS, err = e.rec.timed("dpgraph.release", func() error {
		var err error
		p.rel, err = pg.Release()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("release: %w", err)
	}
	p.indexS, _ = e.rec.timed("index.build_auto", func() error {
		p.origin = p.rel.Oracle()
		return nil
	})
	var buf bytes.Buffer
	p.sealS, err = e.rec.timed("snapshot.seal", func() error {
		return dpgraph.Seal(&buf, p.origin, p.rel, dpgraph.WithSigningKey(e.key))
	})
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	p.artifact = buf.Bytes()
	after := pg.Receipts()
	if len(after) != before+1 || after[len(after)-1].Epsilon != epsilon {
		e.mismatch("publish: want one new receipt of epsilon %g, receipts went from %d to %d", epsilon, before, len(after))
	}
	return p, nil
}

// checkRelease compares the release's answers on the error sample
// with the true distances, and, on the first checkPairs of them, the
// indexed origin oracle with unindexed Dijkstra on the released
// weights. It returns the mean absolute error.
func (e *env) checkRelease(p *publication) (float64, error) {
	got, err := p.origin.Distances(e.in.errPairs)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for i, d := range got {
		sum += abs(d - e.in.truth[i])
	}
	plain, err := p.rel.IndexedOracle(dpgraph.IndexOff)
	if err != nil {
		return 0, err
	}
	n := min(e.cfg.checkPairs, len(e.in.errPairs))
	want, err := plain.Distances(e.in.errPairs[:n])
	if err != nil {
		return 0, err
	}
	for i := range want {
		if abs(want[i]-got[i]) > 1e-9*max(1, abs(want[i])) {
			e.mismatch("index: pair %v answers %v, Dijkstra on the released weights %v", e.in.errPairs[i], got[i], want[i])
		}
	}
	return sum / float64(len(got)), nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// replica is one serve.Server booted from the artifact, listening on
// loopback.
type replica struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// stack is the serving side of one setup: the publication, two replicas
// restored from its artifact, a coordinator fronting both, and the
// client the load generator sends through.
type stack struct {
	pub      *publication
	replicas []*replica
	coord    *cluster.Coordinator
	coordHS  *http.Server
	coordURL string
	coordEnd chan struct{}
	client   *http.Client
	gcS      float64 // collections before the boots, kept out of setup_s
	// expected holds the origin oracle's answer to every pool trip.
	expected []float64
}

// newStack boots the serving stack for pub: it writes the artifact
// where RestoreDir finds it, boots the replicas the production way,
// and starts the coordinator.
func (e *env) newStack(pg *dpgraph.PrivateGraph, pub *publication, dir string) (*stack, error) {
	st := &stack{pub: pub}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, releaseName+".dpsnap"), pub.artifact, 0o644); err != nil {
		return nil, err
	}
	spent, _ := pg.Spent()
	for i := 0; i < 2; i++ {
		st.gcS += collect()
		rep, err := e.bootReplica(dir)
		if err != nil {
			st.close()
			return nil, err
		}
		st.replicas = append(st.replicas, rep)
	}
	if now, _ := pg.Spent(); now != spent {
		e.mismatch("boot: spent epsilon went from %g to %g", spent, now)
	}
	cfg := cluster.Config{}
	for _, r := range st.replicas {
		cfg.Replicas = append(cfg.Replicas, r.url)
	}
	if e.rec != nil {
		// The same pool settings cluster.New uses when Transport is nil.
		base := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second}
		cfg.Transport = &transport{rec: e.rec, base: base}
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	coord.Start()
	st.coord = coord
	st.coordHS, st.coordURL, st.coordEnd, err = listen(e.rec.middleware(spanCluster, coord.Handler()))
	if err != nil {
		st.close()
		return nil, err
	}
	clients := e.cfg.clients
	st.client = &http.Client{
		Transport: &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, IdleConnTimeout: 90 * time.Second},
		Timeout:   10 * time.Second,
	}
	return st, nil
}

// collect runs a garbage collection and returns its wall time. Every
// boot starts from a collected heap, so the garbage of the index build
// just before it does not land on the boot's clock; the collection
// itself is kept out of every metric.
func collect() float64 {
	start := time.Now()
	runtime.GC()
	return sinceS(start)
}

// daemonMaxInflight is the default of dpgraph serve's -max-inflight: the
// per-release admission cap a replica runs with in production.
const daemonMaxInflight = 256

// bootReplica restores a replica from dir and serves it on loopback.
func (e *env) bootReplica(dir string) (*replica, error) {
	srv, h, _, err := e.restore(dir)
	if err != nil {
		return nil, err
	}
	var wrapped http.Handler = h
	if e.cfg.plant {
		wrapped = plantFault(wrapped)
	}
	hs, url, done, err := listen(e.rec.middleware(spanServe, wrapped))
	if err != nil {
		return nil, err
	}
	return &replica{srv: srv, hs: hs, url: url, done: done}, nil
}

// restore boots a replica from dir with signature verification and
// times it until it has answered its first query. The replica has the
// settings dpgraph serve gives it by default.
func (e *env) restore(dir string) (*serve.Server, http.Handler, float64, error) {
	start := time.Now()
	srv := serve.New(e.in.city.G, nil, serve.Config{
		MaxBodyBytes: serve.DefaultMaxBodyBytes,
		MaxInflight:  daemonMaxInflight,
		MaxReleases:  serve.DefaultMaxReleases,
		VerifyKey:    e.key.Public().(ed25519.PublicKey),
	})
	n, err := srv.RestoreDir(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("boot: %w", err)
	}
	if n != 1 {
		return nil, nil, 0, fmt.Errorf("boot: restored %d releases, want 1", n)
	}
	h := srv.Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, distancePath+e.in.poolURLs[0], nil))
	sec := time.Since(start).Seconds()
	if rr.Code != http.StatusOK {
		return nil, nil, 0, fmt.Errorf("boot: first answer: status %d: %s", rr.Code, rr.Body.Bytes())
	}
	return srv, h, sec, nil
}

// timedBoots is how many boots of each publication bootTimes times.
const timedBoots = 5

// bootTimes boots once untimed and then timedBoots times timed, each
// from a collected heap, and returns the timed boots' seconds. On a 2-vCPU
// host a boot right after other work, which grows the heap, took 0.2 to
// 0.3 s and a boot right after another boot 0.13 to 0.17 s; timing only
// the latter keeps boot_s from depending on what ran before it.
func bootTimes(boot func() (float64, error)) ([]float64, error) {
	var out []float64
	for i := 0; i <= timedBoots; i++ {
		collect()
		sec, err := boot()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			out = append(out, sec)
		}
	}
	return out, nil
}

const (
	distancePath  = "/v1/releases/" + releaseName + "/distance"
	distancesPath = "/v1/releases/" + releaseName + "/distances"
)

// listen serves h on a loopback port; done closes when Serve returns.
func listen(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

// close stops every server and goroutine of the stack and waits for
// them.
func (st *stack) close() {
	if st.coordHS != nil {
		st.coordHS.Close()
		<-st.coordEnd
	}
	if st.coord != nil {
		st.coord.Stop()
	}
	for _, r := range st.replicas {
		r.hs.Close()
		<-r.done
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
}

// computeExpected asks the origin oracle for every pool trip.
func (st *stack) computeExpected(in *input) error {
	var err error
	st.expected, err = st.pub.origin.Distances(in.pool)
	return err
}

// metricsOf reads a /metrics document into v.
func (st *stack) metricsOf(base string, v any) error {
	resp, err := st.client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/metrics: status %d", base, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cacheCounts sums the result-cache counters of the replicas.
func (st *stack) cacheCounts() (hits, lookups float64, err error) {
	for _, r := range st.replicas {
		var m struct {
			Totals struct {
				CacheHits   float64 `json:"cache_hits"`
				CacheMisses float64 `json:"cache_misses"`
			} `json:"totals"`
		}
		if err := st.metricsOf(r.url, &m); err != nil {
			return 0, 0, err
		}
		hits += m.Totals.CacheHits
		lookups += m.Totals.CacheHits + m.Totals.CacheMisses
	}
	return hits, lookups, nil
}

// coordCounts are the coordinator's routing counters.
type coordCounts struct {
	Requests  float64 `json:"requests"`
	Proxied   float64 `json:"proxied_attempts"`
	Retries   float64 `json:"retries"`
	Hedges    float64 `json:"hedges"`
	HedgeWins float64 `json:"hedge_wins"`
}

func (st *stack) coordCounts() (coordCounts, error) {
	var c coordCounts
	err := st.metricsOf(st.coordURL, &c)
	return c, err
}

// plantFault corrupts the value of the first distance answer the
// handler serves, so a run can prove its checks catch a wrong answer.
func plantFault(next http.Handler) http.Handler {
	var once sync.Once
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		planted := false
		if strings.Contains(r.URL.Path, "/distance") {
			once.Do(func() { planted = true })
		}
		if !planted {
			next.ServeHTTP(w, r)
			return
		}
		rr := httptest.NewRecorder()
		next.ServeHTTP(rr, r)
		body := bytes.Replace(rr.Body.Bytes(), []byte(`"value":`), []byte(`"value":1`), 1)
		for k, v := range rr.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rr.Code)
		w.Write(body) //nolint:errcheck // best effort, like the handler itself
	})
}

// exchange is when a request was handed to the client and when its
// answer's body had been read.
type exchange struct{ sent, done time.Time }

// send sends one request and returns its body in buf; a status other
// than 200 is an error. In a traced phase it records the client span
// and sends the ids the server-side middleware reads.
func (e *env) send(client *http.Client, r request, buf *bytes.Buffer) (exchange, error) {
	var x exchange
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(context.Background(), r.method, r.url, rd)
	if err != nil {
		return x, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var s span
	tracing := e.tracing.Load()
	if tracing {
		s = span{ID: e.rec.newID(), Req: e.rec.newID(), Name: spanClient, Start: e.rec.now()}
		req.Header.Set(hdrReq, fmt.Sprint(s.Req))
		req.Header.Set(hdrSpan, fmt.Sprint(s.ID))
	}
	x.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return x, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	x.done = time.Now()
	if tracing {
		s.End = e.rec.now()
		e.rec.add(s)
	}
	if err != nil {
		return x, err
	}
	if resp.StatusCode != http.StatusOK {
		return x, fmt.Errorf("%s %s: status %d: %.200s", r.method, r.url, resp.StatusCode, buf.Bytes())
	}
	return x, nil
}

// errExhausted is a phase's failure when a client's traffic ran out of
// inputs before the phase ended.
var errExhausted = errors.New("batch traffic ran out of distinct pairs")
