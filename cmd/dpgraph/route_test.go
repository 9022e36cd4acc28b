package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunRouteFlagErrors(t *testing.T) {
	cases := [][]string{
		{"route", "extra"},                        // positional args
		{"route", "-probe-interval", "0s"},        // bad interval
		{"route", "-max-attempts", "0"},           // bad attempts
		{"route", "-retry-budget", "0"},           // bad budget
		{"route", "-replication", "-1"},           // bad replication
		{"route", "-chaos-error-rate", "1.5"},     // bad rate
		{"route", "-chaos-hang", "-0.1"},          // bad rate
		{"route", "-drain-grace", "-1s"},          // bad grace
		{"route", "-replicas", "ftp://bad"},       // bad replica URL
		{"route", "-replicas", "http://h:1/path"}, // path in replica URL
		{"-graph", "g.txt", "route"},              // global flags rejected
		{"route", "-snapshot-dir", "/does/not/exist"},
	}
	for _, args := range cases {
		if _, err := capture(t, args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// startDaemon boots one run() invocation in the background and waits
// for its listen-address seam to fire.
func startDaemon(t *testing.T, ready <-chan string, args []string) (addr string, done chan error) {
	t.Helper()
	outFile, err := os.CreateTemp(t.TempDir(), "daemonout")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { outFile.Close() })
	done = make(chan error, 1)
	go func() {
		done <- run(outFile, strings.NewReader(""), args)
	}()
	select {
	case addr = <-ready:
		return addr, done
	case err := <-done:
		t.Fatalf("%v exited before listening: %v", args, err)
	case <-time.After(10 * time.Second):
		t.Fatalf("%v never started listening", args)
	}
	return "", nil
}

// TestRouteCLIEndToEnd boots a real serve replica and a route
// coordinator in-process, registers the replica, answers a point query
// through the coordinator, and requires both daemons to drain cleanly
// on one SIGINT.
func TestRouteCLIEndToEnd(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	serveReady := make(chan string, 1)
	serveListening = serveReady
	defer func() { serveListening = nil }()
	serveAddr, serveDone := startDaemon(t, serveReady, []string{
		"-graph", path, "serve", "-addr", "127.0.0.1:0", "-allow-seeded", "-drain-grace", "0s"})

	resp, err := http.Post("http://"+serveAddr+"/v1/releases", "application/json",
		strings.NewReader(`{"name":"main","mechanism":"release","epsilon":2,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create release: status %d", resp.StatusCode)
	}

	routeReady := make(chan string, 1)
	routeListening = routeReady
	defer func() { routeListening = nil }()
	routeAddr, routeDone := startDaemon(t, routeReady, []string{
		"route", "-addr", "127.0.0.1:0", "-replicas", "http://" + serveAddr,
		"-probe-interval", "50ms", "-drain-grace", "0s"})
	base := "http://" + routeAddr

	// The coordinator proxies the query API transparently.
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
	servedBy := resp.Header.Get("X-Served-By")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || point.Value <= 0 {
		t.Fatalf("proxied point: status %d value %g", resp.StatusCode, point.Value)
	}
	if servedBy != "http://"+serveAddr {
		t.Errorf("X-Served-By = %q, want the replica", servedBy)
	}

	// Replica answer and coordinator answer agree bit for bit.
	resp, err = http.Get("http://" + serveAddr + "/v1/releases/main/distance?s=0&t=3")
	if err != nil {
		t.Fatal(err)
	}
	var direct struct {
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&direct); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if direct.Value != point.Value {
		t.Errorf("coordinator %g, replica %g", point.Value, direct.Value)
	}

	var pool struct {
		Replicas []struct {
			State string `json:"state"`
		} `json:"replicas"`
	}
	resp, err = http.Get(base + "/v1/replicas")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&pool); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pool.Replicas) != 1 || pool.Replicas[0].State != "healthy" {
		t.Errorf("pool = %+v", pool)
	}

	// One SIGINT reaches both daemons' signal contexts.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	for name, done := range map[string]chan error{"serve": serveDone, "route": routeDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s exited with %v", name, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not shut down on SIGINT", name)
		}
	}
}

// TestServeCLIDrainGrace is the drain-sequence regression: after
// SIGINT the daemon must flip /readyz first and answer new queries
// with retryable 503s for the whole grace window — while /livez stays
// green — and only then close the listener.
func TestServeCLIDrainGrace(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	ready := make(chan string, 1)
	draining := make(chan struct{}, 1)
	serveListening, daemonDraining = ready, draining
	defer func() { serveListening, daemonDraining = nil, nil }()
	addr, done := startDaemon(t, ready, []string{
		"-graph", path, "serve", "-addr", "127.0.0.1:0", "-allow-seeded", "-drain-grace", "2s"})
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/releases", "application/json",
		strings.NewReader(`{"name":"main","mechanism":"release","epsilon":2,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status := httpStatus(t, base+"/readyz"); status != http.StatusOK {
		t.Fatalf("pre-drain readyz: status %d", status)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	// The readiness flip precedes the listener close.
	select {
	case <-draining:
	case <-time.After(15 * time.Second):
		t.Fatal("the daemon never started draining after SIGINT")
	}
	if status := httpStatus(t, base+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", status)
	}
	// During the grace window: alive, but shedding retryably.
	if status := httpStatus(t, base+"/livez"); status != http.StatusOK {
		t.Errorf("livez during drain: status %d", status)
	}
	qresp, err := http.Get(base + "/v1/releases/main/distance?s=0&t=3")
	if err != nil {
		t.Fatalf("query during grace window: %v (listener closed before the grace elapsed?)", err)
	}
	io.Copy(io.Discard, qresp.Body) //nolint:errcheck
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusServiceUnavailable || qresp.Header.Get("Retry-After") == "" {
		t.Errorf("draining query: status %d, Retry-After %q", qresp.StatusCode, qresp.Header.Get("Retry-After"))
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down after the grace window")
	}
}

// httpStatus GETs a URL and returns just the status (0 on dial error).
func httpStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}

// TestRunBenchServeErrorBudget: -max-error-rate turns a lossy run into
// a pass when the rate is within budget and a failure when not; the
// zero default keeps fail-on-any semantics.
func TestRunBenchServeErrorBudget(t *testing.T) {
	ts := benchTarget(t)

	// Clean target, invalid flag values bounce.
	for _, args := range [][]string{
		{"bench-serve", "-url", ts.URL, "-release", "main", "-max-error-rate", "1"},
		{"bench-serve", "-url", ts.URL, "-release", "main", "-max-error-rate", "-0.1"},
		{"bench-serve", "-url", ts.URL, "-release", "main", "-timeout", "-1s"},
		{"bench-serve", "-url", ts.URL, "-release", "main", "-stream", "-timeout", "1s"},
	} {
		if _, err := capture(t, args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}

	// A timeout far too tight for real queries fails every request —
	// within a 100% -max-error-rate... which is invalid; use 0.99: the
	// run passes while reporting the rate. With the default budget of
	// zero the same run errors out.
	lossy := []string{"bench-serve", "-url", ts.URL, "-release", "main",
		"-n", "20", "-c", "2", "-timeout", "1ns"}
	if _, err := capture(t, lossy); err == nil {
		t.Error("all-timeout run passed with a zero error budget")
	}
}

// TestBenchErrorBudget pins the budget arithmetic itself.
func TestBenchErrorBudget(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "budget")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	for _, tc := range []struct {
		failed, total int64
		budget        float64
		wantErr       bool
	}{
		{0, 100, 0, false},    // clean run always passes
		{1, 100, 0, true},     // zero budget keeps fail-on-any
		{1, 100, 0.05, false}, // 1% within a 5% budget
		{10, 100, 0.05, true}, // 10% exceeds it
		{5, 100, 0.05, false}, // exactly at the budget passes
		{6, 100, 0.05, true},  // just over fails
	} {
		err := benchErrorBudget(out, "requests", tc.failed, tc.total, tc.budget, "last")
		if (err != nil) != tc.wantErr {
			t.Errorf("benchErrorBudget(%d/%d, budget %g) err=%v, wantErr=%v",
				tc.failed, tc.total, tc.budget, err, tc.wantErr)
		}
	}
}
