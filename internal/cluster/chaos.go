package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ChaosTransport is a fault-injecting http.RoundTripper wrapped around
// the coordinator's downstream transport: it adds latency to every
// proxied request, fails a fraction of them with synthetic transport
// errors, and hangs a fraction until their context deadline fires. It
// exists twice over — as the `dpgraph route -chaos-*` flags, so an
// operator can rehearse fleet failure modes against a live coordinator,
// and as a test double the chaos tests aim at specific replicas.
//
// Faults are decided before the request is forwarded, so an injected
// error never half-executes a downstream request.
type ChaosTransport struct {
	// Base performs the real request; nil means a NewTransport, the
	// transport a coordinator uses when Config.Transport is nil, so the
	// flags rehearse the production hop.
	Base http.RoundTripper
	// Latency is added to every matched request before it is forwarded.
	Latency time.Duration
	// ErrorRate is the probability in [0, 1] that a matched request
	// fails with a synthetic transport error instead of running.
	ErrorRate float64
	// HangRate is the probability in [0, 1] that a matched request
	// blocks until its context is done — a replica that accepted the
	// connection and never answers.
	HangRate float64
	// Hosts, when non-empty, limits injection to these host:port
	// targets; an empty map chaoses every request.
	Hosts map[string]bool
	// Seed makes the fault coin-flips reproducible; 0 seeds from the
	// clock at first use.
	Seed int64

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
	rt   http.RoundTripper // Base, or the transport made for a nil Base
}

// ErrChaosInjected is the synthetic transport failure injected by
// ErrorRate, distinguishable from real network errors in test logs.
var ErrChaosInjected = errors.New("chaos: injected transport error")

func (t *ChaosTransport) init() {
	seed := t.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.rng = rand.New(rand.NewSource(seed))
	t.rt = t.Base
	if t.rt == nil {
		t.rt = NewTransport()
	}
}

// roll draws one uniform [0,1) sample under the lock.
func (t *ChaosTransport) roll() float64 {
	t.once.Do(t.init)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64()
}

func (t *ChaosTransport) base() http.RoundTripper {
	t.once.Do(t.init)
	return t.rt
}

// CloseIdleConnections passes through to the wrapped transport, so
// Coordinator.Stop reaches its idle connections.
func (t *ChaosTransport) CloseIdleConnections() {
	if ci, ok := t.base().(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

func (t *ChaosTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if len(t.Hosts) > 0 && !t.Hosts[r.URL.Host] {
		return t.base().RoundTrip(r)
	}
	if t.HangRate > 0 && t.roll() < t.HangRate {
		<-r.Context().Done()
		return nil, fmt.Errorf("chaos: hung until deadline: %w", r.Context().Err())
	}
	if t.Latency > 0 {
		select {
		case <-time.After(t.Latency):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	if t.ErrorRate > 0 && t.roll() < t.ErrorRate {
		return nil, ErrChaosInjected
	}
	return t.base().RoundTrip(r)
}
