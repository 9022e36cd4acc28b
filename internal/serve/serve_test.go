package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/dpgraph"
)

// newTestServer returns a server over a 4x4 grid with deterministic
// weights, plus its httptest front.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g := dpgraph.Grid(4)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%4)
	}
	cfg.AllowSeeded = true // the fixtures pin answers with seeded specs
	s := New(g, w, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// createRelease POSTs a release spec and fails the test on a non-201.
func createRelease(t *testing.T, ts *httptest.Server, body string) releaseSummary {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/releases", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d: %s", body, resp.StatusCode, data)
	}
	var sum releaseSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("bad create response: %v\n%s", err, data)
	}
	return sum
}

// get fetches a URL and returns status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// post sends a body and returns status and response body.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// TestServeEndToEnd is the release -> point query -> batch query ->
// listing -> metrics -> shutdown round trip over real HTTP.
func TestServeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sum := createRelease(t, ts, `{"name":"main","mechanism":"release","epsilon":2,"seed":7}`)
	if sum.Status != "ready" || sum.Mechanism != "release" || sum.N != 16 || sum.Bound <= 0 {
		t.Fatalf("create summary = %+v", sum)
	}
	if sum.Receipt.Epsilon != 2 {
		t.Errorf("receipt = %+v, want epsilon 2", sum.Receipt)
	}

	// Point query, GET form.
	status, data := get(t, ts.URL+"/v1/releases/main/distance?s=0&t=15")
	if status != http.StatusOK {
		t.Fatalf("distance: status %d: %s", status, data)
	}
	var ans struct {
		S, T  int
		Value float64
	}
	if err := json.Unmarshal(data, &ans); err != nil {
		t.Fatalf("bad answer: %v\n%s", err, data)
	}
	if ans.S != 0 || ans.T != 15 || ans.Value <= 0 {
		t.Errorf("answer = %+v", ans)
	}

	// Point query, POST form, must agree (same release, post-processing).
	status, data2 := post(t, ts.URL+"/v1/releases/main/distance", `{"s":0,"t":15}`)
	if status != http.StatusOK || !bytes.Equal(data, data2) {
		t.Errorf("POST distance: status %d, body %s, want %s", status, data2, data)
	}

	// Batch query in all three input forms.
	var first []byte
	for _, body := range []string{
		`[[0,15],[1,2],[3,3]]`,
		`[{"s":0,"t":15},{"s":1,"t":2},{"s":3,"t":3}]`,
		"0 15\n1 2\n3 3\n",
	} {
		status, data := post(t, ts.URL+"/v1/releases/main/distances", body)
		if status != http.StatusOK {
			t.Fatalf("batch %q: status %d: %s", body, status, data)
		}
		var env batchEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("bad batch envelope: %v\n%s", err, data)
		}
		if env.Mechanism != "release" || env.Count != 3 || env.Bound <= 0 || len(env.Results) != 3 {
			t.Errorf("batch envelope = %+v", env)
		}
		if env.Results[0].Value != ans.Value {
			t.Errorf("batch (0,15) = %g, point query said %g", env.Results[0].Value, ans.Value)
		}
		if env.Results[2].Value != 0 {
			t.Errorf("s == t answer = %g, want 0", env.Results[2].Value)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Errorf("input form %q answered differently:\n%s\nvs\n%s", body, data, first)
		}
	}

	// A second, independently budgeted release coexists.
	createRelease(t, ts, `{"name":"tree.v2","mechanism":"apsd","seed":9,"gamma":0.01}`)
	status, data = get(t, ts.URL+"/v1/releases")
	var list struct {
		Releases []releaseSummary `json:"releases"`
	}
	if status != http.StatusOK || json.Unmarshal(data, &list) != nil || len(list.Releases) != 2 {
		t.Fatalf("list: status %d: %s", status, data)
	}
	if list.Releases[0].Name != "main" || list.Releases[1].Name != "tree.v2" {
		t.Errorf("listing order = %+v", list.Releases)
	}
	if list.Releases[1].Gamma != 0.01 {
		t.Errorf("tree.v2 gamma = %g, want the spec's 0.01", list.Releases[1].Gamma)
	}

	// Health and metrics.
	status, data = get(t, ts.URL+"/livez")
	if status != http.StatusOK || !strings.Contains(string(data), `"alive"`) {
		t.Errorf("livez: status %d: %s", status, data)
	}
	status, data = get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d: %s", status, data)
	}
	var metrics struct {
		Totals     metricsSnapshot            `json:"totals"`
		Releases   map[string]metricsSnapshot `json:"releases"`
		BufferPool struct {
			Gets uint64 `json:"gets"`
		} `json:"buffer_pool"`
	}
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Fatalf("bad metrics: %v\n%s", err, data)
	}
	if metrics.BufferPool.Gets == 0 {
		t.Error("buffer pool saw no checkouts")
	}
	main := metrics.Releases["main"]
	// 2 point queries + 3 batches of 3 pairs.
	if main.Requests != 5 || main.Queries != 11 {
		t.Errorf("main metrics = %+v, want 5 requests / 11 queries", main)
	}
	if main.LatencyNS.P50 <= 0 || main.LatencyNS.P99 < main.LatencyNS.P50 {
		t.Errorf("latency quantiles = %+v", main.LatencyNS)
	}
	if metrics.Totals.Queries != main.Queries+metrics.Releases["tree.v2"].Queries {
		t.Errorf("totals %+v do not add up", metrics.Totals)
	}

	// Graceful shutdown: close the server, in-flight work already done.
	ts.Close()
	if _, err := http.Get(ts.URL + "/livez"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestServeIndexed serves a contraction-hierarchy release and checks
// indexed answers match the unindexed release from the same seed, and
// that cache hits surface in /metrics.
func TestServeIndexed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createRelease(t, ts, `{"name":"plain","mechanism":"release","seed":5}`)
	sum := createRelease(t, ts, `{"name":"fast","mechanism":"release","seed":5,"index":"ch"}`)
	if sum.Index != "ch" {
		t.Fatalf("summary = %+v", sum)
	}
	for i := 0; i < 3; i++ { // repeats drive the result cache
		for s := 0; s < 16; s += 3 {
			statusA, a := get(t, fmt.Sprintf("%s/v1/releases/plain/distance?s=%d&t=15", ts.URL, s))
			statusB, b := get(t, fmt.Sprintf("%s/v1/releases/fast/distance?s=%d&t=15", ts.URL, s))
			if statusA != 200 || statusB != 200 {
				t.Fatalf("statuses %d %d", statusA, statusB)
			}
			var va, vb struct{ Value float64 }
			if json.Unmarshal(a, &va) != nil || json.Unmarshal(b, &vb) != nil {
				t.Fatal("bad answers", string(a), string(b))
			}
			if diff := va.Value - vb.Value; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("s=%d: unindexed %g vs ch %g", s, va.Value, vb.Value)
			}
		}
	}
	_, data := get(t, ts.URL+"/metrics")
	var metrics struct {
		Releases map[string]metricsSnapshot `json:"releases"`
	}
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Fatal(err)
	}
	fast := metrics.Releases["fast"]
	if fast.CacheHits == 0 {
		t.Errorf("indexed release reports no cache hits after repeated pairs: %+v", fast)
	}
	if plain := metrics.Releases["plain"]; plain.CacheHits != 0 || plain.CacheMisses != 0 {
		t.Errorf("unindexed release reports cache traffic: %+v", plain)
	}
}

// TestServeUnreachable checks the null+unreachable convention on a
// disconnected topology.
func TestServeUnreachable(t *testing.T) {
	g := dpgraph.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	s := New(g, []float64{1, 1}, Config{AllowSeeded: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	createRelease(t, ts, `{"name":"split","mechanism":"release","seed":3}`)

	status, data := get(t, ts.URL+"/v1/releases/split/distance?s=0&t=3")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var ans struct {
		Value       *float64 `json:"value"`
		Unreachable bool     `json:"unreachable"`
	}
	if err := json.Unmarshal(data, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Value != nil || !ans.Unreachable {
		t.Errorf("disconnected pair = %s, want null value + unreachable", data)
	}

	status, data = post(t, ts.URL+"/v1/releases/split/distances", `[[0,3],[0,1]]`)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, data)
	}
	var env struct {
		Results []struct {
			Value       *float64 `json:"value"`
			Unreachable bool     `json:"unreachable"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Results[0].Unreachable || env.Results[0].Value != nil {
		t.Errorf("batch disconnected pair = %+v", env.Results[0])
	}
	if env.Results[1].Unreachable || env.Results[1].Value == nil {
		t.Errorf("batch connected pair = %+v", env.Results[1])
	}
}

// TestServeHandlerErrors sweeps the error envelope paths.
func TestServeHandlerErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createRelease(t, ts, `{"name":"main","mechanism":"release","seed":7}`)

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/releases", `{bad json`, 400},
		{"POST", "/v1/releases", `{"name":"x","mechanism":"release"} extra`, 400},
		{"POST", "/v1/releases", `{"name":"x","mechanism":"release","bogus":1}`, 400},
		{"POST", "/v1/releases", `{"name":"bad name!","mechanism":"release"}`, 400},
		{"POST", "/v1/releases", `{"name":"x","mechanism":"nope"}`, 400},
		{"POST", "/v1/releases", `{"name":"x","mechanism":"mst"}`, 400},
		{"POST", "/v1/releases", `{"name":"x","mechanism":"bounded"}`, 400},
		{"POST", "/v1/releases", `{"name":"x","mechanism":"release","index":"bogus"}`, 400},
		{"POST", "/v1/releases", `{"name":"x","mechanism":"release","max_inflight":-1}`, 400},
		{"POST", "/v1/releases", `{"name":"x","mechanism":"release","coalesce":true}`, 400}, // removed spec field: old clients fail loudly
		{"POST", "/v1/releases", `{"name":"main","mechanism":"release"}`, 409},
		{"GET", "/v1/releases/nope/distance?s=0&t=1", "", 404},
		{"POST", "/v1/releases/nope/distances", `[[0,1]]`, 404},
		{"GET", "/v1/releases/main/distance?s=0", "", 400},
		{"GET", "/v1/releases/main/distance?s=x&t=1", "", 400},
		{"GET", "/v1/releases/main/distance?s=0&t=99", "", 400},
		{"POST", "/v1/releases/main/distance", `{"src":0,"t":1}`, 400},
		{"POST", "/v1/releases/main/distance", `{"t":1}`, 400}, // omitted key must not default to vertex 0
		{"POST", "/v1/releases/main/distance", `{"s":0}`, 400},
		{"POST", "/v1/releases/main/distance", `{}`, 400},
		{"POST", "/v1/releases/main/distance", `{"s":0,"t":1}{"s":1,"t":2}`, 400},
		{"POST", "/v1/releases/main/distances", ``, 400},
		{"POST", "/v1/releases/main/distances", `[]`, 400},
		{"POST", "/v1/releases/main/distances", `[[0,1]] trailing`, 400},
		{"POST", "/v1/releases/main/distances", `[{"s":0,"t":1}] [[1,2]]`, 400},
		{"POST", "/v1/releases/main/distances", `[[0,99]]`, 400},
		{"POST", "/v1/releases/main/distances", `[[0,1,2]]`, 400},
		{"GET", "/v1/nothing", "", 404},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s %q: status %d, want %d: %s", c.method, c.path, c.body, resp.StatusCode, c.want, data)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Error == "" {
			t.Errorf("%s %s: error body not a JSON envelope: %s", c.method, c.path, data)
		}
	}
}

// TestServeBodyLimit rejects oversized bodies with 413.
func TestServeBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	createRelease(t, ts, `{"name":"main","mechanism":"release","seed":7}`)
	var big strings.Builder
	big.WriteString("[")
	for i := 0; i < 200; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString("[0,1]")
	}
	big.WriteString("]")
	status, data := post(t, ts.URL+"/v1/releases/main/distances", big.String())
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d: %s", status, data)
	}
	status, data = post(t, ts.URL+"/v1/releases", `{"name":"y","mechanism":"release","index":"`+strings.Repeat("a", 300)+`"}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: status %d: %s", status, data)
	}
}

// TestServeSeedRefused: a network client must not be able to choose
// deterministic (privacy-free) noise unless the operator opted in.
func TestServeSeedRefused(t *testing.T) {
	g := dpgraph.Grid(4)
	w := make([]float64, g.M())
	s := New(g, w, Config{}) // AllowSeeded defaults off
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	status, data := post(t, ts.URL+"/v1/releases", `{"name":"x","mechanism":"release","seed":1}`)
	if status != http.StatusForbidden || !strings.Contains(string(data), "allow-seeded") {
		t.Errorf("seeded spec: status %d: %s", status, data)
	}
	// Crypto-noise specs pass, and the refused name was not burned.
	if status, data := post(t, ts.URL+"/v1/releases", `{"name":"x","mechanism":"release"}`); status != http.StatusCreated {
		t.Errorf("crypto spec: status %d: %s", status, data)
	}
}

// TestServeReleaseCapAndDelete: the registry cap sheds creates with
// 429 until DELETE frees a slot; deleted names answer 404 and can be
// re-created.
func TestServeReleaseCapAndDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxReleases: 2})
	createRelease(t, ts, `{"name":"a","mechanism":"release","seed":1}`)
	createRelease(t, ts, `{"name":"b","mechanism":"release","seed":2}`)

	status, data := post(t, ts.URL+"/v1/releases", `{"name":"c","mechanism":"release","seed":3}`)
	if status != http.StatusTooManyRequests || !strings.Contains(string(data), "cap 2") {
		t.Fatalf("create past cap: status %d: %s", status, data)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/releases/a", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"deleted": "a"`) {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, data)
	}
	if status, data := get(t, ts.URL+"/v1/releases/a/distance?s=0&t=1"); status != http.StatusNotFound {
		t.Errorf("deleted release still answers: status %d: %s", status, data)
	}
	// The freed slot admits a new release, including reusing the name.
	createRelease(t, ts, `{"name":"a","mechanism":"release","seed":4}`)

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/releases/nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown: status %d", resp.StatusCode)
	}
}

// TestServeRemoveByIdentity: a stalled deleter holding a stale release
// pointer must not delete a newer release that reused the name.
func TestServeRemoveByIdentity(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	old, err := s.reg.reserve("foo", dpgraph.ReleaseSpec{Mechanism: "release"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	close(old.ready)
	s.reg.remove(old)
	fresh, err := s.reg.reserve("foo", dpgraph.ReleaseSpec{Mechanism: "release"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.reg.remove(old) // stale pointer: must be a no-op now
	got, ok := s.reg.lookup("foo")
	if !ok || got != fresh {
		t.Fatalf("stale remove deleted the recreated release (ok=%v)", ok)
	}
	s.reg.remove(fresh)
	if _, ok := s.reg.lookup("foo"); ok {
		t.Fatal("identity-matched remove left the release registered")
	}
}

// TestServeMaterializingRelease: a release whose materialization has
// not finished lists as "materializing" and reports zero metrics. It is
// not a release yet, so queries get 404 as for an unknown name, while
// DELETE and a duplicate create of its name get 409. None of this may
// touch its unset oracle.
func TestServeMaterializingRelease(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, err := s.reg.reserve("pending", dpgraph.ReleaseSpec{Mechanism: "release"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	status, data := get(t, ts.URL+"/v1/releases")
	if status != http.StatusOK || !strings.Contains(string(data), `"materializing"`) {
		t.Errorf("listing: status %d: %s", status, data)
	}
	status, data = get(t, ts.URL+"/v1/releases/pending/distance?s=0&t=1")
	if status != http.StatusNotFound {
		t.Errorf("query on materializing release: status %d, want 404: %s", status, data)
	}
	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/v1/releases/pending/distances", `[[0,1]]`, http.StatusNotFound},
		{http.MethodDelete, "/v1/releases/pending", "", http.StatusConflict},
		{http.MethodPost, "/v1/releases", `{"name":"pending","mechanism":"release"}`, http.StatusConflict},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s on materializing release: status %d, want %d: %s", c.method, c.path, resp.StatusCode, c.want, data)
		}
	}
	status, data = get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Errorf("metrics: status %d: %s", status, data)
	}
	var metrics struct {
		Releases map[string]metricsSnapshot `json:"releases"`
	}
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Fatal(err)
	}
	if snap := metrics.Releases["pending"]; snap.CacheHits != 0 || snap.Requests != 0 {
		t.Errorf("materializing release metrics = %+v", snap)
	}
}

// blockingOracle parks every Distance call until released; it stands in
// for a slow search so admission control is observable.
type blockingOracle struct {
	entered chan struct{}
	release chan struct{}
}

func (o *blockingOracle) Distance(s, t int) (float64, error) {
	o.entered <- struct{}{}
	<-o.release
	return 1, nil
}

func (o *blockingOracle) Distances(pairs []dpgraph.VertexPair) ([]float64, error) {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		d, err := o.Distance(p.S, p.T)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

func (o *blockingOracle) Bound(gamma float64) float64 { return 1 }
func (o *blockingOracle) N() int                      { return 4 }

type stubResult struct{ dpgraph.ReleaseInfo }

func (stubResult) Bound(float64) float64 { return 1 }
func (stubResult) Summary() string       { return "stub" }

// TestServeAdmissionControl fills a release's single admission slot
// with a parked request and checks the next one sheds with 429.
func TestServeAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	oracle := &blockingOracle{entered: make(chan struct{}, 1), release: make(chan struct{})}
	rel, err := s.reg.reserve("slow", dpgraph.ReleaseSpec{Mechanism: "release"}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel.oracle, rel.result = oracle, stubResult{}
	close(rel.ready)

	done := make(chan error, 1)
	go func() {
		status, _ := get(t, ts.URL+"/v1/releases/slow/distance?s=0&t=1")
		if status != http.StatusOK {
			done <- fmt.Errorf("parked request finished with %d", status)
			return
		}
		done <- nil
	}()
	<-oracle.entered // the slot is now held inside the oracle

	status, data := get(t, ts.URL+"/v1/releases/slow/distance?s=0&t=1")
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429: %s", status, data)
	}
	var env errorEnvelope
	if json.Unmarshal(data, &env) != nil || !strings.Contains(env.Error, "admission cap") {
		t.Errorf("429 body = %s", data)
	}

	close(oracle.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Slot free again: the next request is admitted (and now returns
	// instantly because release stays closed).
	if status, data := get(t, ts.URL+"/v1/releases/slow/distance?s=0&t=1"); status != http.StatusOK {
		t.Errorf("post-drain request: status %d: %s", status, data)
	}
	_, data = get(t, ts.URL+"/metrics")
	var metrics struct {
		Releases map[string]metricsSnapshot `json:"releases"`
	}
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Releases["slow"].Rejected429; got != 1 {
		t.Errorf("rejected_429 = %d, want 1", got)
	}
}

// TestServeConcurrentClients hammers one release from many goroutines
// while more releases materialize — the -race coverage for the serving
// path.
func TestServeConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createRelease(t, ts, `{"name":"main","mechanism":"release","seed":7,"index":"ch"}`)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients+2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				s, u := (c+i)%16, (c*3+i*7)%16
				status, data := get(t, fmt.Sprintf("%s/v1/releases/main/distance?s=%d&t=%d", ts.URL, s, u))
				if status != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %s", c, status, data)
					return
				}
				if i%10 == 0 {
					if status, data := post(t, ts.URL+"/v1/releases/main/distances", "0 15\n1 2\n"); status != http.StatusOK {
						errs <- fmt.Errorf("client %d batch: status %d: %s", c, status, data)
						return
					}
				}
			}
		}(c)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"name":"side%d","mechanism":"apsd","seed":%d}`, c, c+1)
			status, data := post(t, ts.URL+"/v1/releases", body)
			if status != http.StatusCreated {
				errs <- fmt.Errorf("concurrent create %d: status %d: %s", c, status, data)
			}
		}(c)
	}
	// Poll /metrics and the listing throughout, racing the creates:
	// both must read materializing releases safely (regression for a
	// cacheStats read of rel.oracle before ready closed).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if status, data := get(t, ts.URL+"/metrics"); status != http.StatusOK {
				errs <- fmt.Errorf("metrics during load: status %d: %s", status, data)
				return
			}
			if status, data := get(t, ts.URL+"/v1/releases"); status != http.StatusOK {
				errs <- fmt.Errorf("listing during load: status %d: %s", status, data)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if status, _ := get(t, ts.URL+"/metrics"); status != http.StatusOK {
		t.Error("metrics unavailable after load")
	}
}
