package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// replicaState is the circuit-breaker position for one replica.
type replicaState int32

const (
	// stateHealthy: the breaker is closed; the replica takes traffic.
	stateHealthy replicaState = iota
	// stateEvicted: the breaker is open after consecutive failures; the
	// replica takes no live traffic and only health probes (or, with no
	// healthy alternative, a single half-open trial request) can
	// re-admit it.
	stateEvicted
	// stateTrial: half-open; exactly one live request is in flight as a
	// trial. Success closes the breaker, failure re-opens it.
	stateTrial
)

func (s replicaState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateEvicted:
		return "evicted"
	case stateTrial:
		return "trial"
	default:
		return "unknown"
	}
}

// replica is one pool member: its base URL and rendezvous seed, breaker
// state, the release set learned from its last successful /readyz
// probe, and traffic counters. All mutable state sits behind mu;
// counters that feed /metrics are atomics so readers never contend
// with the hot path.
type replica struct {
	url  string
	seed uint64 // hash64(url), this replica's rendezvous salt

	mu sync.Mutex
	// state is the breaker position; see replicaState.
	state replicaState
	// consecFails counts consecutive failures (live requests and probes
	// both); reaching the coordinator's threshold opens the breaker.
	consecFails int
	// evictedAt stamps the last transition to stateEvicted, driving the
	// half-open cooldown.
	evictedAt time.Time
	// releases is the replica's ready-release set from its last
	// successful readiness probe; nil means not yet probed (assume it
	// can serve anything rather than refusing to route).
	releases map[string]bool

	requests   atomic.Uint64 // live requests attempted against this replica
	failures   atomic.Uint64 // live requests that failed (transport or 5xx)
	probes     atomic.Uint64 // readiness probes sent
	probeFails atomic.Uint64 // readiness probes failed
}

// healthy reports whether the breaker is closed.
func (rep *replica) healthy() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.state == stateHealthy
}

// routable reports, under one lock, whether the breaker is closed and
// whether the replica may hold the release: its last probe listed it,
// or no probe has succeeded yet.
func (rep *replica) routable(release string) (healthy, holds bool) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.state == stateHealthy, rep.releases == nil || rep.releases[release]
}

// markSuccess records a successful live request or probe, closing the
// breaker if it was open. Returns true when this call re-admitted a
// previously evicted replica.
func (rep *replica) markSuccess(releases map[string]bool) (readmitted bool) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.consecFails = 0
	if releases != nil {
		rep.releases = releases
	}
	if rep.state != stateHealthy {
		rep.state = stateHealthy
		return true
	}
	return false
}

// markFailure records a failed live request or probe; once threshold
// consecutive failures accumulate the breaker opens. Returns true when
// this call evicted the replica.
func (rep *replica) markFailure(threshold int) (evicted bool) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.consecFails++
	if rep.state == stateTrial {
		// The half-open trial failed: straight back to evicted with a
		// fresh cooldown.
		rep.state = stateEvicted
		rep.evictedAt = time.Now()
		return false
	}
	if rep.state == stateHealthy && rep.consecFails >= threshold {
		rep.state = stateEvicted
		rep.evictedAt = time.Now()
		return true
	}
	return false
}

// tryTrial claims the single half-open trial slot of an evicted replica
// whose cooldown has passed. The caller must report the trial's outcome
// through markSuccess or markFailure.
func (rep *replica) tryTrial(cooldown time.Duration) bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.state != stateEvicted || time.Since(rep.evictedAt) < cooldown {
		return false
	}
	rep.state = stateTrial
	return true
}

// replicaStatus is the JSON shape of one replica in GET /v1/replicas.
type replicaStatus struct {
	URL                 string   `json:"url"`
	State               string   `json:"state"`
	ConsecutiveFailures int      `json:"consecutive_failures,omitempty"`
	Releases            []string `json:"releases,omitempty"`
	Requests            uint64   `json:"requests"`
	Failures            uint64   `json:"failures"`
	Probes              uint64   `json:"probes"`
	ProbeFailures       uint64   `json:"probe_failures"`
}

func (rep *replica) status() replicaStatus {
	rep.mu.Lock()
	st := replicaStatus{
		URL:                 rep.url,
		State:               rep.state.String(),
		ConsecutiveFailures: rep.consecFails,
	}
	for name := range rep.releases {
		st.Releases = append(st.Releases, name)
	}
	rep.mu.Unlock()
	sort.Strings(st.Releases)
	st.Requests = rep.requests.Load()
	st.Failures = rep.failures.Load()
	st.Probes = rep.probes.Load()
	st.ProbeFailures = rep.probeFails.Load()
	return st
}
