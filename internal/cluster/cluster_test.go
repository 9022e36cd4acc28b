package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dpgraph"
	"repro/internal/serve"
)

// Fault modes a test replica can be flipped into mid-load. Everything
// including /readyz is affected, so a faulted replica looks exactly
// like a sick or dead process to the coordinator's prober.
const (
	modeOK   = "ok"
	mode500  = "500"  // every request answers 500
	modeHang = "hang" // every request blocks until its context dies
	modeKill = "kill" // every connection is severed mid-request (process killed)
	// modeStall blocks point queries until their context dies, then
	// signals stalls; probes still answer, so the breaker stays closed
	// unless the coordinator blames the replica.
	modeStall = "stall"
)

// testReplica is one in-process `serve` daemon behind a fault switch.
type testReplica struct {
	ts   *httptest.Server
	mode atomic.Value
	// hangs receives, without blocking the replica, once a request
	// reaches modeHang.
	hangs chan struct{}
	// stalls receives, without blocking the replica, once per stalled
	// point query whose context died; its buffer holds more than any
	// test stalls, so no signal is dropped before the test reads it.
	stalls chan struct{}
}

func (r *testReplica) set(mode string) { r.mode.Store(mode) }
func (r *testReplica) url() string     { return r.ts.URL }

// fleetGraph is the shared test topology and private weights.
func fleetGraph() (*dpgraph.Graph, []float64) {
	g := dpgraph.Grid(4)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%4)
	}
	return g, w
}

const fleetReleaseSpec = `{"name":"main","mechanism":"release","epsilon":2,"seed":7}`

// newTestFleet boots n replicas all serving the identical seeded
// release "main" (identical seed, so bit-identical released values —
// the single-node oracle from fleetOracle is ground truth for every
// replica), each behind a fault switch starting at modeOK.
func newTestFleet(t testing.TB, n int) []*testReplica {
	t.Helper()
	g, w := fleetGraph()
	fleet := make([]*testReplica, n)
	for i := range fleet {
		s := serve.New(g, w, serve.Config{AllowSeeded: true})
		inner := s.Handler()
		rep := &testReplica{hangs: make(chan struct{}, 1), stalls: make(chan struct{}, 64)}
		rep.mode.Store(modeOK)
		rep.ts = httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
			switch rep.mode.Load() {
			case mode500:
				http.Error(wr, "injected failure", http.StatusInternalServerError)
			case modeHang:
				select {
				case rep.hangs <- struct{}{}:
				default:
				}
				<-r.Context().Done()
			case modeKill:
				panic(http.ErrAbortHandler)
			case modeStall:
				if strings.HasSuffix(r.URL.Path, "/distance") {
					<-r.Context().Done()
					select {
					case rep.stalls <- struct{}{}:
					default:
					}
					return
				}
				inner.ServeHTTP(wr, r)
			default:
				inner.ServeHTTP(wr, r)
			}
		}))
		t.Cleanup(rep.ts.Close)
		// Heal before close so hung handlers never stall cleanup.
		t.Cleanup(func() { rep.set(modeOK) })
		resp, err := http.Post(rep.ts.URL+"/v1/releases", "application/json", strings.NewReader(fleetReleaseSpec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("replica %d: create release status %d", i, resp.StatusCode)
		}
		fleet[i] = rep
	}
	return fleet
}

// fleetOracle materializes the same seeded release locally: the
// single-node ground truth every proxied answer must equal.
func fleetOracle(t testing.TB) dpgraph.DistanceOracle {
	t.Helper()
	g, w := fleetGraph()
	spec := dpgraph.ReleaseSpec{Mechanism: "release", Epsilon: 2, Seed: 7}
	oracle, _, err := spec.Materialize(g, dpgraph.PrivateWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	return oracle
}

// newTestCoordinator wires a coordinator over the fleet and fronts it
// with an httptest server.
func newTestCoordinator(t testing.TB, fleet []*testReplica, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	for _, rep := range fleet {
		cfg.Replicas = append(cfg.Replicas, rep.url())
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 100 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

// getJSON decodes a GET response into v, returning the status.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

type pointAnswer struct {
	S     int      `json:"s"`
	T     int      `json:"t"`
	Value *float64 `json:"value"`
}

// queryPoint fires one point query through the coordinator and returns
// status, answer, and the response headers.
func queryPoint(t *testing.T, base string, s, tt int) (int, pointAnswer, http.Header) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/releases/main/distance?s=%d&t=%d", base, s, tt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var ans pointAnswer
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &ans); err != nil {
			t.Fatalf("bad point answer: %v\n%s", err, data)
		}
	}
	return resp.StatusCode, ans, resp.Header
}

// waitReplicaState polls the coordinator until the replica reports the
// wanted breaker state, returning how long it took.
func waitReplicaState(t *testing.T, c *Coordinator, url, want string, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(within)
	for time.Now().Before(deadline) {
		for _, rep := range c.snapshotReplicas() {
			if rep.url == url && rep.status().State == want {
				return time.Since(start)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica %s never reached state %q within %v", url, want, within)
	return 0
}

// TestClusterRoutingAgreement: point, batch, and stream answers routed
// through the coordinator all equal the single-node oracle, and the
// release listing proxies through.
func TestClusterRoutingAgreement(t *testing.T) {
	fleet := newTestFleet(t, 3)
	_, ts := newTestCoordinator(t, fleet, Config{})
	oracle := fleetOracle(t)

	for s := 0; s < 4; s++ {
		for tt := 12; tt < 16; tt++ {
			status, ans, hdr := queryPoint(t, ts.URL, s, tt)
			if status != http.StatusOK {
				t.Fatalf("point (%d,%d): status %d", s, tt, status)
			}
			want, err := oracle.Distance(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Value == nil || *ans.Value != want {
				t.Errorf("point (%d,%d) = %v, oracle says %g", s, tt, ans.Value, want)
			}
			if hdr.Get("X-Served-By") == "" {
				t.Error("answer missing X-Served-By")
			}
		}
	}

	// Batch through the proxy agrees too.
	resp, err := http.Post(ts.URL+"/v1/releases/main/distances", "application/json",
		strings.NewReader(`[[0,15],[1,2],[3,3]]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch struct {
		Count   int           `json:"count"`
		Results []pointAnswer `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || batch.Count != 3 {
		t.Fatalf("batch: status %d, %+v", resp.StatusCode, batch)
	}
	for _, r := range batch.Results {
		want, _ := oracle.Distance(r.S, r.T)
		if r.Value == nil || *r.Value != want {
			t.Errorf("batch (%d,%d) = %v, oracle says %g", r.S, r.T, r.Value, want)
		}
	}

	// Stream proxy: NDJSON queries down, answers back, all correct.
	sresp, err := http.Post(ts.URL+"/v1/releases/main/distances:stream", "text/plain",
		strings.NewReader("0 15\n1 2\n3 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sdata, _ := io.ReadAll(sresp.Body)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d: %s", sresp.StatusCode, sdata)
	}
	lines := strings.Split(strings.TrimSpace(string(sdata)), "\n")
	if len(lines) != 3 {
		t.Fatalf("stream answered %d lines, want 3:\n%s", len(lines), sdata)
	}
	for _, line := range lines {
		var r pointAnswer
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		want, _ := oracle.Distance(r.S, r.T)
		if r.Value == nil || *r.Value != want {
			t.Errorf("stream (%d,%d) = %v, oracle says %g", r.S, r.T, r.Value, want)
		}
	}

	// The release listing proxies to a replica.
	var listing struct {
		Releases []struct {
			Name string `json:"name"`
		} `json:"releases"`
	}
	if status := getJSON(t, ts.URL+"/v1/releases", &listing); status != http.StatusOK {
		t.Fatalf("listing status %d", status)
	}
	if len(listing.Releases) != 1 || listing.Releases[0].Name != "main" {
		t.Errorf("listing = %+v", listing)
	}
}

// TestClusterRegistration: a coordinator born empty is not ready,
// becomes ready when a replica registers, and rejects junk URLs.
func TestClusterRegistration(t *testing.T) {
	fleet := newTestFleet(t, 1)
	c, ts := newTestCoordinator(t, nil, Config{ProbeInterval: 50 * time.Millisecond})

	if status := getJSON(t, ts.URL+"/livez", nil); status != http.StatusOK {
		t.Errorf("livez status %d", status)
	}
	if status := getJSON(t, ts.URL+"/readyz", nil); status != http.StatusServiceUnavailable {
		t.Errorf("empty-pool readyz status %d, want 503", status)
	}
	if status, _, _ := queryPoint(t, ts.URL, 0, 15); status != http.StatusServiceUnavailable {
		t.Errorf("empty-pool query status %d, want 503", status)
	}

	// Bad registrations bounce.
	for _, body := range []string{`{"url":"ftp://nope"}`, `{"url":"http://h:1/path"}`, `{}`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/replicas", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// A real one lands healthy (registration probes synchronously).
	resp, err := http.Post(ts.URL+"/v1/replicas", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, fleet[0].url())))
	if err != nil {
		t.Fatal(err)
	}
	var st replicaStatus
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "healthy" || len(st.Releases) != 1 || st.Releases[0] != "main" {
		t.Errorf("registered status = %+v", st)
	}
	if status := getJSON(t, ts.URL+"/readyz", nil); status != http.StatusOK {
		t.Errorf("readyz after registration: status %d", status)
	}
	if status, ans, _ := queryPoint(t, ts.URL, 0, 15); status != http.StatusOK || ans.Value == nil {
		t.Errorf("query after registration: status %d, %+v", status, ans)
	}

	// The pool listing shows it; re-registering is idempotent.
	http.Post(ts.URL+"/v1/replicas", "application/json", //nolint:errcheck
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, fleet[0].url())))
	var pool struct {
		Replicas []replicaStatus `json:"replicas"`
	}
	getJSON(t, ts.URL+"/v1/replicas", &pool)
	if len(pool.Replicas) != 1 || pool.Replicas[0].State != "healthy" {
		t.Errorf("pool = %+v", pool)
	}
	_ = c
}

// TestClusterRegisterWhileRouting: a replica that registers, twice,
// while point queries route through the coordinator joins the pool
// once, disturbs no answer, and takes traffic once its probe is in.
func TestClusterRegisterWhileRouting(t *testing.T) {
	fleet := newTestFleet(t, 3)
	_, ts := newTestCoordinator(t, fleet[:2], Config{ProbeInterval: time.Hour})
	oracle := fleetOracle(t)

	// ask runs one point query off the test goroutine, reporting a
	// wrong or missing answer with t.Error.
	ask := func(i int) bool {
		s, tt := i%16, (i/16)%16
		resp, err := http.Get(fmt.Sprintf("%s/v1/releases/main/distance?s=%d&t=%d", ts.URL, s, tt))
		if err != nil {
			t.Error(err)
			return false
		}
		defer resp.Body.Close()
		var ans pointAnswer
		err = json.NewDecoder(resp.Body).Decode(&ans)
		if want, _ := oracle.Distance(s, tt); err != nil || resp.StatusCode != http.StatusOK || ans.Value == nil || *ans.Value != want {
			t.Errorf("point (%d,%d): status %d, value %v (%v), oracle says %g", s, tt, resp.StatusCode, ans.Value, err, want)
			return false
		}
		return true
	}
	const workers = 4
	stop, started := make(chan struct{}), make(chan struct{}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ok := ask(w)
			started <- struct{}{}
			for i := w + workers; ok; i += workers {
				select {
				case <-stop:
					return
				default:
					ok = ask(i)
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-started
	}
	joiner := fleet[2].url()
	for n := 0; n < 2; n++ {
		resp, err := http.Post(ts.URL+"/v1/replicas", "application/json", strings.NewReader(fmt.Sprintf(`{"url":%q}`, joiner)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("registration %d: status %d", n+1, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()

	// Every member is in the working set and requests rotate through
	// it, so three queries in a row put the newcomer first once.
	for i := 0; i < 3; i++ {
		if status, _, _ := queryPoint(t, ts.URL, 0, 15); status != http.StatusOK {
			t.Fatalf("query %d after registration: status %d", i, status)
		}
	}
	var pool struct {
		Replicas []replicaStatus `json:"replicas"`
	}
	getJSON(t, ts.URL+"/v1/replicas", &pool)
	listed := map[string]int{}
	for _, st := range pool.Replicas {
		listed[st.URL]++
		if st.URL == joiner && (st.State != "healthy" || st.Requests == 0) {
			t.Errorf("the joined replica is %q with %d requests, want healthy and serving", st.State, st.Requests)
		}
	}
	for _, rep := range fleet {
		if listed[rep.url()] != 1 {
			t.Errorf("GET /v1/replicas lists %s %d times, want once: %+v", rep.url(), listed[rep.url()], pool.Replicas)
		}
	}
	if len(pool.Replicas) != len(fleet) {
		t.Errorf("GET /v1/replicas lists %d replicas, want %d", len(pool.Replicas), len(fleet))
	}
}

// TestClusterFailoverAndBreaker: with one replica answering 500s every
// query still succeeds via the healthy one; the sick replica is
// evicted, then re-admitted by probes after it heals.
func TestClusterFailoverAndBreaker(t *testing.T) {
	fleet := newTestFleet(t, 2)
	c, ts := newTestCoordinator(t, fleet, Config{ProbeInterval: 50 * time.Millisecond})
	oracle := fleetOracle(t)

	fleet[0].set(mode500)
	for i := 0; i < 30; i++ {
		status, ans, _ := queryPoint(t, ts.URL, i%4, 15)
		if status != http.StatusOK {
			t.Fatalf("query %d during 500s: status %d", i, status)
		}
		want, _ := oracle.Distance(i%4, 15)
		if ans.Value == nil || *ans.Value != want {
			t.Fatalf("query %d = %v, oracle says %g", i, ans.Value, want)
		}
	}
	waitReplicaState(t, c, fleet[0].url(), "evicted", 2*time.Second)
	if ev := c.metrics.evictions.Load(); ev == 0 {
		t.Error("eviction metric still zero")
	}

	// Heal it; the prober re-admits within a couple of cycles.
	fleet[0].set(modeOK)
	waitReplicaState(t, c, fleet[0].url(), "healthy", 2*time.Second)
	if re := c.metrics.readmissions.Load(); re == 0 {
		t.Error("readmission metric still zero")
	}
}

// TestClusterDeadline: with every replica hung, a client-shortened
// deadline surfaces as a 504 in deadline time, not coordinator-default
// time.
func TestClusterDeadline(t *testing.T) {
	fleet := newTestFleet(t, 2)
	_, ts := newTestCoordinator(t, fleet, Config{
		ProbeInterval: 200 * time.Millisecond,
		HedgeDelay:    -1, // isolate the deadline path from hedging
	})
	for _, rep := range fleet {
		rep.set(modeHang)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/releases/main/distance?s=0&t=15", nil)
	req.Header.Set("X-Request-Timeout", "150ms")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("hung-pool status = %d, want 504", resp.StatusCode)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline took %v, want ~150ms", elapsed)
	}
}

// sealFleetSnapshot seals the fleet's seeded release into a fresh
// directory as main.dpsnap and returns the directory and the origin
// oracle.
func sealFleetSnapshot(t *testing.T) (string, dpgraph.DistanceOracle) {
	t.Helper()
	g, w := fleetGraph()
	spec := dpgraph.ReleaseSpec{Mechanism: "release", Epsilon: 2, Seed: 7}
	oracle, res, err := spec.Materialize(g, dpgraph.PrivateWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "main.dpsnap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := dpgraph.Seal(f, oracle, res); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return dir, oracle
}

// TestClusterFallback: when every replica is out, releases with a
// local unsealed snapshot keep answering — correctly — and are marked
// as fallback serves; a 503 with Retry-After covers the rest.
func TestClusterFallback(t *testing.T) {
	dir, oracle := sealFleetSnapshot(t)

	fleet := newTestFleet(t, 1)
	c, ts := newTestCoordinator(t, fleet, Config{
		ProbeInterval: 50 * time.Millisecond,
		SnapshotDir:   dir,
	})
	fleet[0].set(modeKill)
	waitReplicaState(t, c, fleet[0].url(), "evicted", 2*time.Second)

	status, ans, hdr := queryPoint(t, ts.URL, 0, 15)
	if status != http.StatusOK {
		t.Fatalf("fallback point: status %d", status)
	}
	want, _ := oracle.Distance(0, 15)
	if ans.Value == nil || *ans.Value != want {
		t.Errorf("fallback point = %v, sealed oracle says %g", ans.Value, want)
	}
	if got := hdr.Get("X-Served-By"); got != "local-fallback" {
		t.Errorf("X-Served-By = %q, want local-fallback", got)
	}

	resp, err := http.Post(ts.URL+"/v1/releases/main/distances", "application/json",
		strings.NewReader(`[[0,15],[2,9]]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch struct {
		Mechanism string        `json:"mechanism"`
		Count     int           `json:"count"`
		Results   []pointAnswer `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || batch.Mechanism != "release" || batch.Count != 2 {
		t.Fatalf("fallback batch: status %d, %+v", resp.StatusCode, batch)
	}
	for _, r := range batch.Results {
		want, _ := oracle.Distance(r.S, r.T)
		if r.Value == nil || *r.Value != want {
			t.Errorf("fallback batch (%d,%d) = %v, want %g", r.S, r.T, r.Value, want)
		}
	}
	if c.metrics.fallbackServed.Load() == 0 {
		t.Error("fallback metric still zero")
	}

	// A release with no fallback sheds with Retry-After instead.
	resp2, err := http.Get(ts.URL + "/v1/releases/ghost/distance?s=0&t=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body) //nolint:errcheck
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Errorf("no-fallback release: status %d, Retry-After %q", resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}
}

// TestClusterClientGoneIsNotAPoolFailure: a point query whose client
// hangs up while the only replica hangs is nobody's failure. The
// coordinator holds a fallback for the release, yet it neither serves
// the gone client from it nor counts the request as unavailable, and
// the replica takes no blame.
func TestClusterClientGoneIsNotAPoolFailure(t *testing.T) {
	dir, _ := sealFleetSnapshot(t)
	fleet := newTestFleet(t, 1)
	c, _ := newTestCoordinator(t, fleet, Config{ProbeInterval: time.Hour, SnapshotDir: dir})
	if !c.fallback.Has("main") {
		t.Fatal("the coordinator holds no fallback for main")
	}
	fleet[0].set(modeHang)
	// Front the coordinator with a server that reports when the handler
	// has returned, so the counters are read after they could move.
	h, done := c.Handler(), make(chan struct{})
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-fleet[0].hangs:
		case <-ctx.Done():
		}
		cancel()
	}()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/v1/releases/main/distance?s=0&t=15", nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("status %d before the client cancelled", resp.StatusCode)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the coordinator's handler outlived the client by 5s")
	}
	if n := c.metrics.fallbackServed.Load(); n != 0 {
		t.Errorf("fallback_served = %d, want 0: the client was gone", n)
	}
	if n := c.metrics.unavailable.Load(); n != 0 {
		t.Errorf("unavailable_503 = %d, want 0: a client hanging up is not a pool failure", n)
	}
	for _, rep := range c.snapshotReplicas() {
		if st := rep.status(); st.Failures != 0 {
			t.Errorf("replica %s: %d failures, want 0", st.URL, st.Failures)
		}
	}
}

// TestClusterFallbackMatchesReplica: the coordinator's local fallback
// and a replica restored from the same sealed artifact answer every
// distance request identically — status and decoded body, including
// the batch envelope's bound, gamma, and mechanism — and the stream
// endpoint falls back too.
func TestClusterFallbackMatchesReplica(t *testing.T) {
	dir, _ := sealFleetSnapshot(t)

	replica := serve.New(nil, nil, serve.Config{})
	if _, err := replica.RestoreDir(dir); err != nil {
		t.Fatal(err)
	}
	direct := httptest.NewServer(replica.Handler())
	t.Cleanup(direct.Close)

	fleet := newTestFleet(t, 1)
	c, ts := newTestCoordinator(t, fleet, Config{
		ProbeInterval: 50 * time.Millisecond,
		SnapshotDir:   dir,
	})
	fleet[0].set(modeKill)
	waitReplicaState(t, c, fleet[0].url(), "evicted", 2*time.Second)

	const rel = "/v1/releases/main"
	for _, tc := range []struct {
		name, method, path, body string
	}{
		{"GET point", http.MethodGet, rel + "/distance?s=0&t=15", ""},
		{"POST point", http.MethodPost, rel + "/distance", `{"s":0,"t":15}`},
		{"POST point unknown key", http.MethodPost, rel + "/distance", `{"s":0,"t":15,"x":1}`},
		{"text batch", http.MethodPost, rel + "/distances", "0 15\n2 9\n"},
		{"JSON batch", http.MethodPost, rel + "/distances", `[[0,15],[2,9]]`},
		{"stream", http.MethodPost, rel + "/distances:stream", "0 15\n2 9\n"},
	} {
		send := func(base string) (int, []any, http.Header) {
			req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			// Decoding value by value covers both single JSON bodies and
			// the stream's NDJSON lines.
			var vals []any
			dec := json.NewDecoder(resp.Body)
			for {
				var v any
				if err := dec.Decode(&v); err == io.EOF {
					break
				} else if err != nil {
					t.Fatalf("%s: bad JSON from %s: %v", tc.name, base, err)
				}
				vals = append(vals, v)
			}
			return resp.StatusCode, vals, resp.Header
		}
		wantStatus, want, _ := send(direct.URL)
		gotStatus, got, hdr := send(ts.URL)
		if gotStatus != wantStatus || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fallback answered %d %v, replica %d %v", tc.name, gotStatus, got, wantStatus, want)
			continue
		}
		if by := hdr.Get("X-Served-By"); by != "local-fallback" {
			t.Errorf("%s: X-Served-By = %q, want local-fallback", tc.name, by)
		}
	}
}

// TestClusterHedging pins the hedging contract without timing luck.
// ReplicationFactor 1 makes the first replica in "main"'s rendezvous
// order the primary of every query and the other the hedge target.
func TestClusterHedging(t *testing.T) {
	oracle := fleetOracle(t)
	setup := func(t *testing.T, hedgeDelay time.Duration) (c *Coordinator, base string, primary, backup *testReplica) {
		fleet := newTestFleet(t, 2)
		c, ts := newTestCoordinator(t, fleet, Config{
			ProbeInterval:     time.Hour, // the breaker moves only on live traffic
			ReplicationFactor: 1,
			HedgeDelay:        hedgeDelay,
		})
		primary, backup = fleet[0], fleet[1]
		if cands := c.candidates("main"); cands[0].url != primary.url() {
			primary, backup = backup, primary
		}
		return c, ts.URL, primary, backup
	}
	check := func(t *testing.T, base string, i int, servedBy string, hedged bool) {
		t.Helper()
		status, ans, hdr := queryPoint(t, base, i%4, 15)
		want, _ := oracle.Distance(i%4, 15)
		if status != http.StatusOK || ans.Value == nil || *ans.Value != want {
			t.Fatalf("query %d: status %d, value %v, oracle says %g", i, status, ans.Value, want)
		}
		if got := hdr.Get("X-Served-By"); got != servedBy {
			t.Errorf("query %d: X-Served-By %q, want %q", i, got, servedBy)
		}
		if got := hdr.Get("X-Hedged") == "1"; got != hedged {
			t.Errorf("query %d: hedged = %v, want %v", i, got, hedged)
		}
	}

	t.Run("a stalled primary is rescued and cancelled", func(t *testing.T) {
		c, base, primary, backup := setup(t, 5*time.Millisecond)
		primary.set(modeStall)
		const queries = 8
		for i := 0; i < queries; i++ {
			check(t, base, i, backup.url(), true)
		}
		if h, w := c.metrics.hedges.Load(), c.metrics.hedgeWins.Load(); h != queries || w != queries {
			t.Errorf("hedges %d, hedge wins %d; want %d each", h, w, queries)
		}
		// The winning hedge cancels the primary, which the replica sees
		// as its request context dying.
		timeout := time.After(5 * time.Second)
		for n := 0; n < queries; n++ {
			select {
			case <-primary.stalls:
			case <-timeout:
				t.Fatalf("the stalled primary saw %d of %d requests cancelled", n, queries)
			}
		}
		select {
		case <-primary.stalls:
			t.Errorf("the stalled primary saw more than %d requests cancelled", queries)
		default:
		}
		for _, rep := range c.snapshotReplicas() {
			if st := rep.status(); st.State != "healthy" || st.Failures != 0 {
				t.Errorf("replica %s: state %q with %d failures; a cancelled loser must not feed the breaker", st.URL, st.State, st.Failures)
			}
		}
	})

	t.Run("a failed primary hedges at once", func(t *testing.T) {
		c, base, primary, backup := setup(t, time.Hour)
		primary.set(mode500)
		check(t, base, 0, backup.url(), true)
		if h, r := c.metrics.hedges.Load(), c.metrics.retries.Load(); h != 1 || r != 0 {
			t.Errorf("hedges %d, retries %d; want 1 and 0", h, r)
		}
	})

	t.Run("a prompt primary starts no hedge", func(t *testing.T) {
		c, base, primary, _ := setup(t, time.Hour)
		const queries = 8
		for i := 0; i < queries; i++ {
			check(t, base, i, primary.url(), false)
		}
		if h, n := c.metrics.hedges.Load(), c.metrics.proxied.Load(); h != 0 || n != queries {
			t.Errorf("hedges %d, attempts %d; want 0 and %d", h, n, queries)
		}
	})
}

// TestClusterSnapshotProxy: a snapshot download through the coordinator
// is the serving replica's artifact byte for byte, revalidates against
// its ETag, skips a failing replica before the first byte, and does not
// blame a replica for a client that walks away before the answer.
// ReplicationFactor 1 makes the first replica in "main"'s rendezvous
// order the first candidate of every download.
func TestClusterSnapshotProxy(t *testing.T) {
	const path = "/v1/releases/main/snapshot"
	setup := func(t *testing.T) (c *Coordinator, base string, primary, backup *testReplica) {
		fleet := newTestFleet(t, 2)
		c, ts := newTestCoordinator(t, fleet, Config{ProbeInterval: time.Hour, ReplicationFactor: 1})
		primary, backup = fleet[0], fleet[1]
		if cands := c.candidates("main"); cands[0].url != primary.url() {
			primary, backup = backup, primary
		}
		return c, ts.URL, primary, backup
	}
	get := func(t *testing.T, url, ifNoneMatch string) (int, []byte, http.Header) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data, resp.Header
	}
	// Each replica sealed its own release, so the artifacts and ETags
	// differ between replicas: compare with the one that served.
	same := func(t *testing.T, base string, from *testReplica) string {
		t.Helper()
		status, data, hdr := get(t, base+path, "")
		wantStatus, want, wantHdr := get(t, from.url()+path, "")
		if status != http.StatusOK || wantStatus != http.StatusOK || len(want) == 0 {
			t.Fatalf("status %d through the coordinator, %d from the replica", status, wantStatus)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("proxied artifact (%d bytes) differs from the replica's (%d bytes)", len(data), len(want))
		}
		for _, h := range []string{"ETag", "Content-Type", "Content-Disposition"} {
			if hdr.Get(h) == "" || hdr.Get(h) != wantHdr.Get(h) {
				t.Errorf("%s = %q, replica sent %q", h, hdr.Get(h), wantHdr.Get(h))
			}
		}
		if got := hdr.Get("X-Served-By"); got != from.url() {
			t.Errorf("X-Served-By = %q, want %q", got, from.url())
		}
		return hdr.Get("ETag")
	}

	t.Run("the artifact and its ETag are the replica's", func(t *testing.T) {
		_, base, primary, _ := setup(t)
		etag := same(t, base, primary)
		status, data, hdr := get(t, base+path, etag)
		if status != http.StatusNotModified || len(data) != 0 || hdr.Get("ETag") != etag {
			t.Errorf("If-None-Match: status %d, %d body bytes, ETag %q; want the replica's 304 for %q", status, len(data), hdr.Get("ETag"), etag)
		}
	})

	t.Run("a failing replica is skipped before the first byte", func(t *testing.T) {
		c, base, primary, backup := setup(t)
		primary.set(mode500)
		same(t, base, backup)
		if n := c.metrics.proxied.Load(); n != 2 {
			t.Errorf("%d attempts, want 2", n)
		}
	})

	t.Run("a client that walks away blames no replica", func(t *testing.T) {
		c, _, primary, _ := setup(t)
		primary.set(modeHang)
		// Front the coordinator with a server that reports when the
		// handler has returned, so the breaker is read after it moved.
		h, done := c.Handler(), make(chan struct{})
		front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer close(done)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(front.Close)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			select {
			case <-primary.hangs:
			case <-ctx.Done():
			}
			cancel()
		}()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+path, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("status %d before the client cancelled", resp.StatusCode)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("the coordinator's handler outlived the client by 5s")
		}
		for _, rep := range c.snapshotReplicas() {
			if st := rep.status(); st.State != "healthy" || st.Failures != 0 {
				t.Errorf("replica %s: state %q with %d failures; a client walking away is not the replica's fault", st.URL, st.State, st.Failures)
			}
		}
	})
}

// TestClusterRedirectPassesThrough: the coordinator hands a replica's
// redirect to the client as it came and does not follow it.
func TestClusterRedirectPassesThrough(t *testing.T) {
	var followed atomic.Int64
	elsewhere := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		followed.Add(1)
	}))
	t.Cleanup(elsewhere.Close)
	redirector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, `{"status":"ready","releases":["main"]}`) //nolint:errcheck
			return
		}
		http.Redirect(w, r, elsewhere.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	t.Cleanup(redirector.Close)
	c, ts := newTestCoordinator(t, nil, Config{Replicas: []string{redirector.URL}, ProbeInterval: time.Hour})

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	const query = "/v1/releases/main/distance?s=0&t=15"
	resp, err := client.Get(ts.URL + query)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get("Location") != elsewhere.URL+query {
		t.Errorf("status %d, Location %q; want the replica's 307 to %s", resp.StatusCode, resp.Header.Get("Location"), elsewhere.URL+query)
	}
	if n := followed.Load(); n != 0 {
		t.Errorf("the redirect target saw %d request(s), want 0", n)
	}
	if st := c.snapshotReplicas()[0].status(); st.State != "healthy" || st.Failures != 0 {
		t.Errorf("replica state %q with %d failures; a redirect is an answer", st.State, st.Failures)
	}
}

// TestClusterRetryBudget: a pool that fails everything drains the
// retry budget and degrades to ~single attempts instead of
// multiplying load MaxAttempts-fold (no retry storm).
func TestClusterRetryBudget(t *testing.T) {
	fleet := newTestFleet(t, 1)
	c, ts := newTestCoordinator(t, fleet, Config{
		ProbeInterval:    time.Hour, // no probes: isolate the live-path budget
		FailureThreshold: 1 << 30,   // keep the breaker closed so attempts keep flowing
		RetryBudget:      0.05,
		HedgeDelay:       -1,
		RetryBackoff:     time.Microsecond,
	})
	fleet[0].set(mode500)

	const requests = 400
	for i := 0; i < requests; i++ {
		status, _, _ := queryPoint(t, ts.URL, 0, 15)
		if status != http.StatusBadGateway {
			t.Fatalf("request %d: status %d, want 502", i, status)
		}
	}
	proxied := c.metrics.proxied.Load()
	// Unbounded retries would send requests*MaxAttempts = 1200 attempts.
	// The budget allows burst (64) + 5% of live traffic (~20) retries.
	if max := uint64(requests + 64 + requests/20 + 20); proxied > max {
		t.Errorf("pool saw %d attempts for %d requests; retry budget is not bounding the storm (want <= %d)", proxied, requests, max)
	}
	if c.metrics.budgetExhausted.Load() == 0 {
		t.Error("budget-exhausted metric still zero")
	}
}

// TestClusterAnswerTooLarge: a replica answer over MaxBodyBytes gets
// 502 naming the limit instead of a truncated 200. A batch answer is
// ~6x its request, so a request under the limit can still overflow it.
// The replica is healthy, so the coordinator neither retries nor feeds
// the breaker.
func TestClusterAnswerTooLarge(t *testing.T) {
	fleet := newTestFleet(t, 2)
	c, ts := newTestCoordinator(t, fleet, Config{MaxBodyBytes: 512, ProbeInterval: time.Hour})
	var batch strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&batch, "%d %d\n", i%16, 15-i%16)
	}
	resp, err := http.Post(ts.URL+"/v1/releases/main/distances", "text/plain", strings.NewReader(batch.String()))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(data), "512 bytes") {
		t.Fatalf("oversized answer: status %d, body %.200s; want 502 naming the 512-byte limit", resp.StatusCode, data)
	}
	if n := c.metrics.proxied.Load(); n != 1 {
		t.Errorf("coordinator made %d attempts, want 1 (no retry)", n)
	}
	for _, rep := range c.snapshotReplicas() {
		if st := rep.status(); st.State != "healthy" || st.Failures != 0 {
			t.Errorf("replica %s: state %q with %d failures; an oversized answer must not feed the breaker", st.URL, st.State, st.Failures)
		}
	}

	// A batch whose answer fits still passes through.
	resp, err = http.Post(ts.URL+"/v1/releases/main/distances", "text/plain", strings.NewReader("0 15\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small batch: status %d, want 200", resp.StatusCode)
	}

	// An oversized answer that declares no length (chunked) is refused
	// the same way once the limit is crossed mid-read.
	var sent atomic.Int64
	chunked := fakeReplica(t, &sent, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte(" "), 400)) //nolint:errcheck
		w.(http.Flusher).Flush()
		w.Write(bytes.Repeat([]byte(" "), 400)) //nolint:errcheck
	})
	c, ts = newTestCoordinator(t, nil, Config{Replicas: []string{chunked.URL}, MaxBodyBytes: 512, ProbeInterval: time.Hour})
	resp, err = http.Get(ts.URL + "/v1/releases/main/distance?s=0&t=15")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(data), "512 bytes") {
		t.Fatalf("oversized chunked answer: status %d, body %.200s; want 502 naming the 512-byte limit", resp.StatusCode, data)
	}
	if n := sent.Load(); n != 1 {
		t.Errorf("the replica answered %d request(s), want 1 (no retry)", n)
	}
	if st := c.snapshotReplicas()[0].status(); st.State != "healthy" || st.Failures != 0 {
		t.Errorf("replica state %q with %d failures; an oversized answer must not feed the breaker", st.State, st.Failures)
	}
}

// fakeReplica is a replica that is ready for "main" and answers every
// other request with answer, counting them in seen.
func fakeReplica(t *testing.T, seen *atomic.Int64, answer http.HandlerFunc) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, `{"status":"ready","releases":["main"]}`) //nolint:errcheck
			return
		}
		seen.Add(1)
		answer(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestClusterRequestTooLarge: a request body over MaxBodyBytes gets the
// replica's 413 envelope from the coordinator itself, and no replica
// sees the request.
func TestClusterRequestTooLarge(t *testing.T) {
	var seen atomic.Int64
	rep := fakeReplica(t, &seen, func(w http.ResponseWriter, r *http.Request) {})
	_, ts := newTestCoordinator(t, nil, Config{Replicas: []string{rep.URL}, MaxBodyBytes: 512, ProbeInterval: time.Hour})
	for _, path := range []string{"/v1/releases/main/distance", "/v1/releases/main/distances"} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(strings.Repeat("0 15\n", 200)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		const want = "{\n  \"error\": \"request body exceeds 512 bytes\"\n}\n"
		if resp.StatusCode != http.StatusRequestEntityTooLarge || string(data) != want {
			t.Errorf("%s: status %d, body %q; want 413 with %q", path, resp.StatusCode, data, want)
		}
	}
	if n := seen.Load(); n != 0 {
		t.Errorf("the replica saw %d request(s), want 0", n)
	}
}

// TestClusterCandidatesAllocs: ordering the pool for a release costs
// one allocation, the returned slice, whatever the pool size.
func TestClusterCandidatesAllocs(t *testing.T) {
	for _, n := range []int{2, 4} {
		cfg := Config{ProbeInterval: time.Hour}
		for i := 0; i < n; i++ {
			cfg.Replicas = append(cfg.Replicas, fmt.Sprintf("http://replica-%d:1", i))
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(c.candidates("main")); got != n {
			t.Fatalf("%d replicas: %d candidates", n, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.candidates("main") }); allocs != 1 {
			t.Errorf("%d replicas: candidates makes %v allocations, want 1", n, allocs)
		}
	}
}

// TestClusterLifecycleRefused: release-mutating endpoints are not
// proxied — materializing through the pool would give every replica
// different noise.
func TestClusterLifecycleRefused(t *testing.T) {
	fleet := newTestFleet(t, 1)
	_, ts := newTestCoordinator(t, fleet, Config{})

	resp, err := http.Post(ts.URL+"/v1/releases", "application/json", strings.NewReader(fleetReleaseSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("POST /v1/releases: status %d, want 501", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/releases/main", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("DELETE: status %d, want 501", resp.StatusCode)
	}
}

// TestClusterDrain: draining flips readiness so load balancers stop
// sending, while metrics stay reachable.
func TestClusterDrain(t *testing.T) {
	fleet := newTestFleet(t, 1)
	c, ts := newTestCoordinator(t, fleet, Config{})
	if status := getJSON(t, ts.URL+"/readyz", nil); status != http.StatusOK {
		t.Fatalf("pre-drain readyz status %d", status)
	}
	c.StartDrain()
	var rz struct {
		Status string `json:"status"`
	}
	if status := getJSON(t, ts.URL+"/readyz", &rz); status != http.StatusServiceUnavailable || rz.Status != "draining" {
		t.Errorf("draining readyz = %d %q", status, rz.Status)
	}
	if status := getJSON(t, ts.URL+"/metrics", nil); status != http.StatusOK {
		t.Errorf("metrics during drain: status %d", status)
	}
}
