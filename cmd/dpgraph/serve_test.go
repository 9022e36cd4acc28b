package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/dpgraph"
	"repro/internal/serve"
)

// TestServeCLIEndToEnd drives the serve subcommand over real HTTP:
// start the daemon, materialize a release, answer a point and a batch
// query, then SIGINT it and require a graceful exit.
func TestServeCLIEndToEnd(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	ready := make(chan string, 1)
	serveListening = ready
	defer func() { serveListening = nil }()

	outFile, err := os.CreateTemp(t.TempDir(), "serveout")
	if err != nil {
		t.Fatal(err)
	}
	defer outFile.Close()
	done := make(chan error, 1)
	go func() {
		done <- run(outFile, strings.NewReader(""), []string{"-graph", path, "serve", "-addr", "127.0.0.1:0", "-allow-seeded"})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never started listening")
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/releases", "application/json",
		strings.NewReader(`{"name":"main","mechanism":"release","epsilon":2,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create release: status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/releases/main/distance?s=0&t=3")
	if err != nil {
		t.Fatal(err)
	}
	var point struct {
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&point); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if point.Value <= 0 {
		t.Errorf("point value = %g", point.Value)
	}

	resp, err = http.Post(base+"/v1/releases/main/distances", "application/json",
		strings.NewReader(`[[0,3],[1,2],[0,0]]`))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Count   int `json:"count"`
		Results []struct {
			Value float64 `json:"value"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if batch.Count != 3 || len(batch.Results) != 3 || batch.Results[0].Value != point.Value {
		t.Errorf("batch = %+v, point value %g", batch, point.Value)
	}

	// Graceful shutdown on SIGINT.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down on SIGINT")
	}
	data, err := os.ReadFile(outFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"serving 4 vertices", "shutdown complete"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("serve output missing %q:\n%s", want, data)
		}
	}
}

// benchTarget spins an in-process serving daemon with one ready
// release for the load-generator tests.
func benchTarget(t *testing.T) *httptest.Server {
	t.Helper()
	g := dpgraph.Grid(4)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1
	}
	s := serve.New(g, w, serve.Config{AllowSeeded: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/releases", "application/json",
		strings.NewReader(`{"name":"main","mechanism":"release","seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create release: status %d", resp.StatusCode)
	}
	return ts
}

func TestRunBenchServe(t *testing.T) {
	ts := benchTarget(t)
	for _, batch := range []string{"1", "8"} {
		out, err := capture(t, []string{"bench-serve", "-url", ts.URL, "-release", "main",
			"-n", "40", "-c", "4", "-batch", batch})
		if err != nil {
			t.Fatalf("batch=%s: %v", batch, err)
		}
		for _, want := range []string{"40 ok / 0 failed", "requests/s", "pairs/s", "p99"} {
			if !strings.Contains(out, want) {
				t.Errorf("batch=%s output missing %q:\n%s", batch, want, out)
			}
		}
	}
}

// TestRunBenchServeFanOut: with no -release the generator spreads its
// load across every ready release the daemon lists.
func TestRunBenchServeFanOut(t *testing.T) {
	ts := benchTarget(t)
	resp, err := http.Post(ts.URL+"/v1/releases", "application/json",
		strings.NewReader(`{"name":"second","mechanism":"release","seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create second release: status %d", resp.StatusCode)
	}
	out, err := capture(t, []string{"bench-serve", "-url", ts.URL, "-n", "40", "-c", "4"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"40 ok / 0 failed", "main", "second"} {
		if !strings.Contains(out, want) {
			t.Errorf("fan-out output missing %q:\n%s", want, out)
		}
	}
}

// TestRunBenchServeStream pipelines point queries over the NDJSON
// stream endpoint, random-pair and fixed-source shapes both.
func TestRunBenchServeStream(t *testing.T) {
	ts := benchTarget(t)
	for _, extra := range [][]string{nil, {"-source", "0"}} {
		args := append([]string{"bench-serve", "-url", ts.URL, "-release", "main",
			"-n", "40", "-c", "3", "-stream"}, extra...)
		out, err := capture(t, args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		for _, want := range []string{"40 ok / 0 failed stream queries", "pairs/s pipelined", "connections:"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v output missing %q:\n%s", args, want, out)
			}
		}
	}
}

// TestRunBenchServeStreamLong pours far more queries down one stream
// than fit in the transport buffers, so the client is still writing its
// pipe-fed chunked body while answers flow back. Without the handler's
// EnableFullDuplex call the HTTP/1 server drains the unread body at the
// first response flush and silently truncates the stream.
func TestRunBenchServeStreamLong(t *testing.T) {
	ts := benchTarget(t)
	out, err := capture(t, []string{"bench-serve", "-url", ts.URL, "-release", "main",
		"-n", "30000", "-c", "2", "-stream"})
	if err != nil {
		t.Fatalf("long stream: %v", err)
	}
	if !strings.Contains(out, "30000 ok / 0 failed stream queries") {
		t.Errorf("long stream truncated:\n%s", out)
	}
}

// TestRunBenchServeFixedSource drives the same-source load: every
// request queries a distinct target from one fixed source.
func TestRunBenchServeFixedSource(t *testing.T) {
	ts := benchTarget(t)
	for _, batch := range []string{"1", "4"} {
		out, err := capture(t, []string{"bench-serve", "-url", ts.URL, "-release", "main",
			"-n", "40", "-c", "4", "-batch", batch, "-source", "0"})
		if err != nil {
			t.Fatalf("batch=%s: %v", batch, err)
		}
		for _, want := range []string{"40 ok / 0 failed", "connections:"} {
			if !strings.Contains(out, want) {
				t.Errorf("batch=%s output missing %q:\n%s", batch, want, out)
			}
		}
	}
}

func TestRunBenchServeErrors(t *testing.T) {
	ts := benchTarget(t)
	cases := [][]string{
		{"bench-serve", "-release", "nope", "-url", ts.URL},                           // unknown release
		{"bench-serve", "-release", "main", "-url", ts.URL, "-n", "0"},                // bad counts
		{"bench-serve", "-release", "main", "-url", "http://127.0.0.1:1", "-n", "4"},  // unreachable server
		{"-graph", "g.txt", "bench-serve", "-release", "main"},                        // global flags rejected
		{"bench-serve", "-release", "main", "-url", ts.URL, "extra"},                  // positional args
		{"bench-serve", "-release", "main", "-url", ts.URL, "-stream", "-batch", "8"}, // stream is point-only
		{"bench-serve", "-release", "main", "-url", ts.URL, "-source", "99"},          // source out of range
	}
	for _, args := range cases {
		if _, err := capture(t, args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunServeFlagErrors(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	cases := [][]string{
		{"serve"},                               // missing -graph
		{"-graph", path, "-eps", "2", "serve"},  // session flags are per-spec
		{"-graph", path, "-seed", "3", "serve"}, // ditto
		{"-graph", path, "serve", "extra"},      // positional args
		{"-graph", path, "serve", "-max-inflight", "-1"},
		{"-graph", path, "serve", "-max-releases", "0"},
		{"-graph", path, "serve", "-addr", "not an address"},
	}
	for _, args := range cases {
		if _, err := capture(t, args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestServeCLIConcurrentSmoke exercises the daemon under parallel
// clients through the public entry point (run under -race in CI).
func TestServeCLIConcurrentSmoke(t *testing.T) {
	ts := benchTarget(t)
	out, err := capture(t, []string{"bench-serve", "-url", ts.URL, "-release", "main",
		"-n", "200", "-c", "16"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "200 ok / 0 failed") {
		t.Errorf("output:\n%s", out)
	}
	var metrics struct {
		Releases map[string]struct {
			Queries uint64 `json:"queries"`
		} `json:"releases"`
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := metrics.Releases["main"].Queries; got != 200 {
		t.Errorf("served %d queries, want 200", got)
	}
}
