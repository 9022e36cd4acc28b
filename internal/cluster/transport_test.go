package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// idleConns counts the connections a coordinator's default transport
// has parked.
func idleConns(c *Coordinator) int {
	tr := c.cfg.Transport.(*Transport)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, pcs := range tr.idle {
		n += len(pcs)
	}
	return n
}

// TestClusterStaleKeepAlive: a replica that closed the coordinator's
// idle keep-alive connections still answers the next point and batch
// queries. The transport redials the stale connection once, which is
// neither a retry nor a breaker failure.
func TestClusterStaleKeepAlive(t *testing.T) {
	fleet := newTestFleet(t, 1)
	c, ts := newTestCoordinator(t, fleet, Config{ProbeInterval: time.Hour})
	oracle := fleetOracle(t)
	want, _ := oracle.Distance(0, 15)

	for i := 0; i < 3; i++ {
		if idleConns(c) == 0 {
			t.Fatalf("round %d: no idle connection to go stale", i)
		}
		fleet[0].ts.CloseClientConnections()
		if i%2 == 0 {
			status, ans, _ := queryPoint(t, ts.URL, 0, 15)
			if status != http.StatusOK || ans.Value == nil || *ans.Value != want {
				t.Fatalf("round %d: point status %d, value %v, want %g", i, status, ans.Value, want)
			}
			continue
		}
		resp, err := http.Post(ts.URL+"/v1/releases/main/distances", "text/plain", strings.NewReader("0 15\n"))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), fmt.Sprint(want)) {
			t.Fatalf("round %d: batch status %d: %s", i, resp.StatusCode, data)
		}
	}
	if r := c.metrics.retries.Load(); r != 0 {
		t.Errorf("%d retries; a stale keep-alive must be redialed inside the transport", r)
	}
	if st := c.snapshotReplicas()[0].status(); st.State != "healthy" || st.Failures != 0 {
		t.Errorf("replica state %q with %d failures; a stale keep-alive is not the replica's fault", st.State, st.Failures)
	}
}

// TestClusterStreamProxy: a chunked distances:stream answer reaches the
// client through the coordinator byte for byte as the replica sends
// it. The client runs in lockstep, sending each query only after the
// previous answer arrived, which only a full-duplex proxy leg serves:
// one that sent the whole request before reading would wait forever.
func TestClusterStreamProxy(t *testing.T) {
	fleet := newTestFleet(t, 1)
	_, ts := newTestCoordinator(t, fleet, Config{ProbeInterval: time.Hour})
	const queries = 200
	query := func(i int) string { return fmt.Sprintf("%d %d\n", i%16, (i*7+3)%16) }
	lockstep := func(base string) ([]byte, http.Header) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pr, pw := io.Pipe()
		defer pw.Close()
		// A proxy that waits for the whole request never answers; end
		// the request at the deadline so the test fails instead of
		// hanging.
		context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/releases/main/distances:stream", pr)
		req.Header.Set("Content-Type", "text/plain")
		// Do returns once the answer's head arrives, which the first
		// query's answer brings.
		go io.WriteString(pw, query(0)) //nolint:errcheck
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("stream via %s: %v", base, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream via %s: status %d", base, resp.StatusCode)
		}
		br := bufio.NewReader(resp.Body)
		var out []byte
		for i := 0; i < queries; i++ {
			if i > 0 {
				if _, err := io.WriteString(pw, query(i)); err != nil {
					t.Fatalf("stream via %s: query %d: %v", base, i, err)
				}
			}
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("stream via %s: answer %d: %v", base, i, err)
			}
			out = append(out, line...)
		}
		pw.Close()
		if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
			t.Fatalf("stream via %s: after the last answer read %q, %v", base, rest, err)
		}
		return out, resp.Header
	}
	direct, _ := lockstep(fleet[0].url())
	proxied, hdr := lockstep(ts.URL)
	if !bytes.Equal(proxied, direct) {
		t.Fatalf("proxied stream differs from the replica's:\n%s\nagainst\n%s", proxied, direct)
	}
	if n := bytes.Count(direct, []byte("\n")); n != queries {
		t.Fatalf("replica answered %d lines, want %d", n, queries)
	}
	if hdr.Get("X-Served-By") != fleet[0].url() {
		t.Errorf("X-Served-By = %q", hdr.Get("X-Served-By"))
	}
}

// TestClusterStopClosesIdle: Stop leaves no idle downstream connection
// open; the replica sees every connection the coordinator opened close.
func TestClusterStopClosesIdle(t *testing.T) {
	g, w := fleetGraph()
	s := serve.New(g, w, serve.Config{AllowSeeded: true})
	var open atomic.Int64
	rts := httptest.NewUnstartedServer(s.Handler())
	rts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	rts.Start()
	t.Cleanup(rts.Close)
	resp, err := http.Post(rts.URL+"/v1/releases", "application/json", strings.NewReader(fleetReleaseSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()

	c, err := New(Config{Replicas: []string{rts.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if status, _, _ := queryPoint(t, ts.URL, i%4, 15); status != http.StatusOK {
				t.Errorf("query %d: status %d", i, status)
			}
		}(i)
	}
	wg.Wait()
	if open.Load() == 0 {
		t.Fatal("the coordinator holds no connection to the replica before Stop")
	}
	c.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for open.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := open.Load(); n != 0 {
		t.Errorf("%d downstream connection(s) still open after Stop", n)
	}
}

// TestClusterTransportTLS: an https replica is spoken to over TLS and
// its certificate verified; the test server's is self-signed.
func TestClusterTransportTLS(t *testing.T) {
	ts := httptest.NewTLSServer(http.NotFoundHandler())
	t.Cleanup(ts.Close)
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	_, err := NewTransport().RoundTrip(req)
	var verr *tls.CertificateVerificationError
	if !errors.As(err, &verr) {
		t.Fatalf("err = %v, want a certificate verification error", err)
	}
}

// TestClusterLatencySampler: the p99 of the last 512 samples, computed
// without allocating (it runs on every 64th point query).
func TestClusterLatencySampler(t *testing.T) {
	var l latencySampler
	if got := l.p99(); got != 0 {
		t.Fatalf("empty sampler p99 = %v", got)
	}
	for i := 0; i < 1000; i++ {
		l.record(time.Duration(i) * time.Microsecond)
	}
	var got time.Duration
	if n := testing.AllocsPerRun(100, func() { got = l.p99() }); n != 0 {
		t.Errorf("p99 made %v allocations per call, want 0", n)
	}
	// The ring holds samples 488..999 µs; element int(0.99·511) = 505
	// of them sorted is 993 µs.
	if got != 993*time.Microsecond {
		t.Errorf("p99 = %v, want 993µs", got)
	}
}

// BenchmarkCoordinatorPoint is one GET point query's whole round trip
// on loopback: client → coordinator → one of two replicas and back,
// with the coordinator's default transport and hedging.
// scripts/check_perf_guards.sh bounds its allocs/op.
func BenchmarkCoordinatorPoint(b *testing.B) {
	fleet := newTestFleet(b, 2)
	_, ts := newTestCoordinator(b, fleet, Config{ProbeInterval: time.Hour})
	urls := make([]string, 16)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/v1/releases/main/distance?s=%d&t=%d", ts.URL, i, 15-i)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	b.Cleanup(client.CloseIdleConnections)
	get := func(u string) {
		resp, err := client.Get(u)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	for _, u := range urls {
		get(u)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(urls[i%len(urls)])
	}
}
