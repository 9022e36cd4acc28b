package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosTransportUnit pins the fault decisions: certain errors,
// host targeting, added latency, and context-bounded hangs.
func TestChaosTransportUnit(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	t.Run("error rate 1 always fails", func(t *testing.T) {
		ct := &ChaosTransport{ErrorRate: 1, Seed: 1}
		req, _ := http.NewRequest(http.MethodGet, backend.URL, nil)
		if _, err := ct.RoundTrip(req); !errors.Is(err, ErrChaosInjected) {
			t.Fatalf("err = %v, want ErrChaosInjected", err)
		}
	})

	t.Run("host filter spares other targets", func(t *testing.T) {
		ct := &ChaosTransport{ErrorRate: 1, Seed: 1, Hosts: map[string]bool{"victim:1": true}}
		req, _ := http.NewRequest(http.MethodGet, backend.URL, nil)
		resp, err := ct.RoundTrip(req)
		if err != nil {
			t.Fatalf("unmatched host chaosed: %v", err)
		}
		resp.Body.Close()
	})

	t.Run("latency is added", func(t *testing.T) {
		ct := &ChaosTransport{Latency: 60 * time.Millisecond, Seed: 1}
		req, _ := http.NewRequest(http.MethodGet, backend.URL, nil)
		start := time.Now()
		resp, err := ct.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if d := time.Since(start); d < 60*time.Millisecond {
			t.Errorf("round trip took %v, want >= 60ms", d)
		}
	})

	t.Run("hang blocks until the context dies", func(t *testing.T) {
		ct := &ChaosTransport{HangRate: 1, Seed: 1}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, backend.URL, nil)
		start := time.Now()
		if _, err := ct.RoundTrip(req); err == nil {
			t.Fatal("hung request returned no error")
		}
		if d := time.Since(start); d < 50*time.Millisecond || d > 5*time.Second {
			t.Errorf("hang resolved after %v, want ~the 50ms deadline", d)
		}
	})
}

// TestChaosConvergence is the fault-injection acceptance test: three
// replicas under concurrent point-query load, one of them failed
// mid-load (killed / hung / answering 500s). The pool must converge —
// the sick replica evicted within two probe cycles, overall error rate
// under 1%, every answered query equal to the single-node oracle (zero
// wrong answers), and the replica re-admitted after it heals. Retries
// and eviction carry kill and 500 with no failures. A hang can still
// cost each of the 4 workers one 504 before eviction, so the phases
// are sized in completed queries, not wall time: 500 run before the
// fault, which keeps 4 failures under 1% with or without hedging.
// Run under -race in CI.
func TestChaosConvergence(t *testing.T) {
	oracle := fleetOracle(t)
	truth := make(map[[2]int]float64)
	for s := 0; s < 16; s++ {
		for tt := 0; tt < 16; tt++ {
			v, err := oracle.Distance(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			truth[[2]int{s, tt}] = v
		}
	}

	const probeInterval = 100 * time.Millisecond
	for _, mode := range []string{modeKill, modeHang, mode500} {
		t.Run(mode, func(t *testing.T) {
			fleet := newTestFleet(t, 3)
			c, ts := newTestCoordinator(t, fleet, Config{
				ProbeInterval:  probeInterval,
				RequestTimeout: 3 * time.Second,
			})
			victim := fleet[0]

			var (
				total    atomic.Int64
				failed   atomic.Int64
				wrong    atomic.Int64
				firstErr sync.Map
				stop     = make(chan struct{})
				wg       sync.WaitGroup
			)
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
			query := func(s, tt int) {
				resp, err := client.Get(fmt.Sprintf("%s/v1/releases/main/distance?s=%d&t=%d", ts.URL, s, tt))
				if err != nil {
					failed.Add(1)
					firstErr.LoadOrStore("transport", err.Error())
					return
				}
				var ans pointAnswer
				ok := resp.StatusCode == http.StatusOK
				if ok {
					if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
						ok = false
					}
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if !ok {
					failed.Add(1)
					firstErr.LoadOrStore("status", fmt.Sprint(resp.StatusCode))
					return
				}
				if ans.Value == nil || *ans.Value != truth[[2]int{s, tt}] {
					wrong.Add(1)
				}
			}
			for wk := 0; wk < 4; wk++ {
				wg.Add(1)
				go func(wk int) {
					defer wg.Done()
					for i := wk; ; i += 4 {
						select {
						case <-stop:
							return
						default:
						}
						query(i%16, (i*7+3)%16)
						total.Add(1)
					}
				}(wk)
			}
			var stopOnce sync.Once
			stopLoad := func() {
				stopOnce.Do(func() { close(stop) })
				wg.Wait()
			}
			t.Cleanup(stopLoad)

			// Let the pool serve cleanly, then fail the victim mid-load.
			waitQueries(t, &total, 500)
			victim.set(mode)
			evictedAfter := waitReplicaState(t, c, victim.url(), "evicted", 5*time.Second)
			// Detection is live-failure-driven under load and probe-driven
			// otherwise; either way two probe cycles (plus one probe
			// timeout of slack for a probe already in flight) must cover it.
			if limit := 2*probeInterval + probeInterval/2 + 150*time.Millisecond; evictedAfter > limit {
				t.Errorf("%s: eviction took %v, want <= %v (2 probe intervals)", mode, evictedAfter, limit)
			}

			// Keep loading against the degraded pool, then heal the victim
			// and require re-admission.
			waitQueries(t, &total, total.Load()+300)
			victim.set(modeOK)
			waitReplicaState(t, c, victim.url(), "healthy", 5*time.Second)
			waitQueries(t, &total, total.Load()+100)
			stopLoad()

			if wrong.Load() != 0 {
				t.Fatalf("%s: %d answered queries disagreed with the single-node oracle", mode, wrong.Load())
			}
			tot, fail := total.Load(), failed.Load()
			if tot < 100 {
				t.Fatalf("%s: only %d queries ran; load generator is broken", mode, tot)
			}
			if rate := float64(fail) / float64(tot); rate >= 0.01 {
				var detail []string
				firstErr.Range(func(k, v any) bool {
					detail = append(detail, fmt.Sprintf("%v=%v", k, v))
					return true
				})
				t.Errorf("%s: error rate %.4f (%d of %d) >= 1%% (%v)", mode, rate, fail, tot, detail)
			}
			t.Logf("%s: %d queries, %d failed, evicted after %v, re-admitted", mode, tot, fail, evictedAfter)
		})
	}
}

// waitQueries blocks until the chaos load generator has completed at
// least n queries.
func waitQueries(t *testing.T, total *atomic.Int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for total.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("load generator completed only %d of %d queries in 30s", total.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosCoordinatorFlags drives a coordinator whose own transport
// injects faults (the -chaos-* path): with retries on, a modest error
// rate must stay invisible to clients.
func TestChaosCoordinatorFlags(t *testing.T) {
	fleet := newTestFleet(t, 2)
	cfg := Config{
		ProbeInterval:    200 * time.Millisecond,
		FailureThreshold: 1 << 30, // chaos failures are synthetic; keep both replicas in play
		Transport: &ChaosTransport{
			ErrorRate: 0.2,
			Seed:      42,
		},
	}
	for _, rep := range fleet {
		cfg.Replicas = append(cfg.Replicas, rep.url())
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	oracle := fleetOracle(t)

	okCount := 0
	for i := 0; i < 50; i++ {
		status, ans, _ := queryPoint(t, ts.URL, i%16, 15)
		if status != http.StatusOK {
			continue
		}
		okCount++
		want, _ := oracle.Distance(i%16, 15)
		if ans.Value == nil || *ans.Value != want {
			t.Fatalf("chaos query %d = %v, oracle says %g", i, ans.Value, want)
		}
	}
	// With a 20% injected error rate and 3 attempts, the residual
	// client-visible failure rate is under 1%; require >= 48/50.
	if okCount < 48 {
		t.Errorf("only %d of 50 queries survived 20%% injected chaos with retries", okCount)
	}
}
