// Package cluster is the fault-tolerant multi-replica serving tier
// over the dpgraph HTTP daemon: a coordinator that proxies point,
// batch, and stream distance requests across a pool of replica daemons
// (each a `dpgraph serve` booted from the same sealed snapshots, so any
// replica can answer any query for a release it holds).
//
// The routing discipline, in order:
//
//   - Rendezvous hashing on the release name orders the replica list
//     into a per-release preference order (a configurable
//     replication-factor prefix of it is the release's working set;
//     requests rotate round-robin inside the set and spill past it
//     only when every member is out).
//   - Active health probes hit every replica's /readyz each probe
//     interval, learning its ready-release set from the same response;
//     probe failures and live-request failures both feed a per-replica
//     circuit breaker (consecutive-failure threshold, half-open
//     re-admission via the next successful probe or a single trial
//     request after a cooldown).
//   - Every request carries a deadline (the coordinator default, or the
//     client's X-Request-Timeout if shorter) propagated through the
//     proxy transport's context; retries only spend time that remains.
//   - Failures retry on the next replica in preference order with
//     jittered exponential backoff, bounded per request by MaxAttempts
//     and globally by a retry budget (a fraction of live traffic), so
//     an outage degrades to single-attempt routing instead of a retry
//     storm.
//   - Point queries hedge: if the primary has not answered within a
//     p99-derived delay, a second identical request races it on another
//     replica and the first answer wins. Hedges spend retry budget.
//   - When every replica for a release is out, the coordinator answers
//     point, batch, and stream requests from a local restore-only
//     serve.Server over its snapshot directory — the replica's own
//     handlers, so fallback answers carry the replica's wire format and
//     error bound — and otherwise sheds with 503 + Retry-After.
//
// Every proxied attempt is built in one place (send) and handed
// straight to the round-tripper, with no http.Client in between: a
// replica's redirect reaches the client as it was sent and is not
// followed. The default round-tripper is Transport, an HTTP/1.1 client
// that runs each exchange on the handler's goroutine over keep-alive
// connections; a point query's primary attempt runs there too, and a
// hedge costs a goroutine only when its timer fires. The transport is
// injectable; ChaosTransport wraps it for the `-chaos-*`
// fault-injection flags and doubles as the test harness for the
// kill/hang/slow convergence tests.
package cluster

import (
	"bytes"
	"cmp"
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Config tunes the coordinator. The zero value is usable with defaults
// filled in by New; Replicas may be empty when replicas register
// themselves over POST /v1/replicas.
type Config struct {
	// Replicas is the static seed list of replica base URLs
	// (scheme://host:port, no trailing slash required).
	Replicas []string
	// ProbeInterval is the active health-probe period; <= 0 takes
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe; <= 0 takes half the probe
	// interval (a hung replica must be detected within one cycle).
	ProbeTimeout time.Duration
	// RequestTimeout is the default end-to-end deadline for one proxied
	// client request, all retries and hedges included; <= 0 takes
	// DefaultRequestTimeout. Clients may shorten (never extend) it per
	// request with an X-Request-Timeout header holding a Go duration.
	RequestTimeout time.Duration
	// MaxAttempts bounds tries per request (first attempt included);
	// <= 0 takes DefaultMaxAttempts.
	MaxAttempts int
	// RetryBackoff is the base backoff before the second attempt,
	// doubling each retry with +-50% jitter; <= 0 takes
	// DefaultRetryBackoff.
	RetryBackoff time.Duration
	// RetryBudget caps retries + hedges as a fraction of live requests
	// (plus a small burst so a cold coordinator can still retry);
	// <= 0 takes DefaultRetryBudget. It is the anti-retry-storm bound:
	// when the whole pool is failing, the budget drains and requests
	// degrade to single attempts instead of multiplying load.
	RetryBudget float64
	// HedgeDelay is how long a point query waits before racing a second
	// replica: 0 derives it from the observed p99 point latency
	// (re-sampled continuously, floored at DefaultHedgeFloor), negative
	// disables hedging.
	HedgeDelay time.Duration
	// FailureThreshold is the consecutive-failure count that opens a
	// replica's circuit breaker; <= 0 takes DefaultFailureThreshold.
	FailureThreshold int
	// ReplicationFactor is the size of each release's hash-selected
	// replica working set; <= 0 means every replica serves every
	// release.
	ReplicationFactor int
	// MaxBodyBytes bounds a buffered (retryable) request body and a
	// buffered replica answer; a larger answer gets 502. <= 0 takes
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// SnapshotDir, when set, is restored at New into a local
	// restore-only serve.Server: releases found there keep answering
	// point, batch, and stream queries (marked X-Served-By:
	// local-fallback) when every replica for them is out, through the
	// same handlers a replica runs.
	SnapshotDir string
	// VerifyKey, when set, requires every fallback snapshot to carry a
	// signature verifying against it.
	VerifyKey ed25519.PublicKey
	// Transport performs the proxied requests and health probes, each
	// handed straight to its RoundTrip, so a replica's redirect is
	// passed through, not followed; nil means a NewTransport, which
	// keeps up to 64 idle keep-alive connections per replica and closes
	// them at Stop. Wrap it in a ChaosTransport to inject faults.
	Transport http.RoundTripper
	// Logf, when set, receives one line per routing event (evictions,
	// re-admissions, fallback serves); nil discards them.
	Logf func(format string, args ...any)
}

// Defaults for the zero Config.
const (
	DefaultProbeInterval    = 1 * time.Second
	DefaultRequestTimeout   = 10 * time.Second
	DefaultMaxAttempts      = 3
	DefaultRetryBackoff     = 2 * time.Millisecond
	DefaultRetryBudget      = 0.1
	DefaultFailureThreshold = 3
	DefaultMaxBodyBytes     = 32 << 20
	// DefaultHedgeFloor keeps an auto-derived hedge delay from firing a
	// second request for queries the primary answers almost instantly.
	DefaultHedgeFloor = 2 * time.Millisecond
)

// retryBudgetBurst is the token ceiling of the retry budget: enough
// for a cold coordinator to ride out a brief outage, small enough that
// a dead pool cannot accumulate a storm's worth of credit.
const retryBudgetBurst = 64.0

// Coordinator routes distance traffic across the replica pool. Safe
// for concurrent use; construct with New, then Start the health
// prober, and Stop it on shutdown.
type Coordinator struct {
	cfg Config // defaults filled in, Transport included

	// members is the replica pool sorted by URL. A published slice is
	// never modified: addReplica copies it under addMu and publishes the
	// copy, so routing reads the pool with one atomic load.
	members atomic.Pointer[[]*replica]
	addMu   sync.Mutex

	// fallback is the restore-only local replica over SnapshotDir
	// (empty when unset); fallbackHandler is its routing table and
	// fallbackLoaded the number of releases it restored.
	fallback        *serve.Server
	fallbackHandler http.Handler
	fallbackLoaded  int

	// rr rotates requests across a release's healthy working set.
	rr atomic.Uint64

	// retry budget: fixed-point millitokens so the hot path stays
	// atomic (1000 = one retry token).
	retryTokens atomic.Int64

	// point-latency sampling for the auto hedge delay.
	lat       latencySampler
	hedgeNS   atomic.Int64 // cached p99-derived hedge delay
	draining  atomic.Bool
	metrics   coordMetrics
	started   time.Time
	stopOnce  sync.Once
	stopc     chan struct{}
	proberWG  sync.WaitGroup
	jitterMu  sync.Mutex
	jitterRNG *rand.Rand
}

// coordMetrics counts coordinator-level routing traffic.
type coordMetrics struct {
	requests        atomic.Uint64
	proxied         atomic.Uint64 // downstream attempts sent
	retries         atomic.Uint64
	hedges          atomic.Uint64
	hedgeWins       atomic.Uint64
	budgetExhausted atomic.Uint64
	evictions       atomic.Uint64
	readmissions    atomic.Uint64
	fallbackServed  atomic.Uint64
	unavailable     atomic.Uint64
	deadlineExpired atomic.Uint64
}

// New builds a coordinator over the static replica list and loads the
// snapshot fallback if configured. Call Start to begin health probing.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval / 2
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = DefaultFailureThreshold
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Transport == nil {
		cfg.Transport = NewTransport()
	}
	c := &Coordinator{
		cfg:       cfg,
		started:   time.Now(),
		stopc:     make(chan struct{}),
		jitterRNG: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	c.members.Store(new([]*replica))
	c.retryTokens.Store(int64(retryBudgetBurst * 1000))
	for _, raw := range cfg.Replicas {
		if _, err := c.addReplica(raw); err != nil {
			return nil, err
		}
	}
	c.fallback = serve.New(nil, nil, serve.Config{MaxBodyBytes: cfg.MaxBodyBytes, VerifyKey: cfg.VerifyKey})
	c.fallbackHandler = c.fallback.Handler()
	if cfg.SnapshotDir != "" {
		n, err := c.fallback.RestoreDir(cfg.SnapshotDir)
		if err != nil {
			return nil, fmt.Errorf("fallback: %w", err)
		}
		c.fallbackLoaded = n
		c.logf("cluster: loaded %d fallback release(s) from %s", n, cfg.SnapshotDir)
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// normalizeReplicaURL validates and canonicalizes one replica base URL.
func normalizeReplicaURL(raw string) (string, error) {
	raw = strings.TrimSuffix(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("bad replica url %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("bad replica url %q: want http:// or https://", raw)
	}
	if u.Host == "" || u.Path != "" || u.RawQuery != "" {
		return "", fmt.Errorf("bad replica url %q: want scheme://host:port with no path", raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// addReplica registers a replica URL by publishing a new member list.
// It is idempotent: re-registering an existing URL returns the live
// entry (keeping its health history) rather than resetting it.
func (c *Coordinator) addReplica(raw string) (*replica, error) {
	urlStr, err := normalizeReplicaURL(raw)
	if err != nil {
		return nil, err
	}
	c.addMu.Lock()
	defer c.addMu.Unlock()
	reps := c.snapshotReplicas()
	i, found := slices.BinarySearchFunc(reps, urlStr, func(rep *replica, u string) int {
		return strings.Compare(rep.url, u)
	})
	if found {
		return reps[i], nil
	}
	rep := &replica{url: urlStr, seed: hash64(urlStr)}
	next := slices.Concat(reps[:i], []*replica{rep}, reps[i:])
	c.members.Store(&next)
	return rep, nil
}

// Start primes replica health with one synchronous probe round and
// launches the background prober.
func (c *Coordinator) Start() {
	c.probeAll()
	c.proberWG.Add(1)
	go func() {
		defer c.proberWG.Done()
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stopc:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Stop halts the prober, waits for it to exit, and closes the
// transport's idle connections.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stopc) })
	c.proberWG.Wait()
	if ci, ok := c.cfg.Transport.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// StartDrain flips /readyz so load balancers stop sending; proxied
// requests already in flight finish normally.
func (c *Coordinator) StartDrain() { c.draining.Store(true) }

// snapshotReplicas returns the current pool, sorted by URL. The slice
// is shared: callers must not modify it.
func (c *Coordinator) snapshotReplicas() []*replica { return *c.members.Load() }

// probeAll probes every replica concurrently and returns when all
// probes resolve (each bounded by ProbeTimeout).
func (c *Coordinator) probeAll() {
	reps := c.snapshotReplicas()
	var wg sync.WaitGroup
	for _, rep := range reps {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			c.probeOne(rep)
		}(rep)
	}
	wg.Wait()
}

// probeOne sends one /readyz probe: a 200 refreshes the replica's
// release set and closes its breaker; anything else (timeout, refusal,
// 503 draining/materializing) counts toward opening it.
func (c *Coordinator) probeOne(rep *replica) {
	rep.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/readyz", nil)
	if err != nil {
		c.noteProbeFailure(rep, err)
		return
	}
	resp, err := c.cfg.Transport.RoundTrip(req)
	if err != nil {
		c.noteProbeFailure(rep, err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		c.noteProbeFailure(rep, fmt.Errorf("readyz status %s", resp.Status))
		return
	}
	var rz struct {
		Releases []string `json:"releases"`
	}
	releases := map[string]bool{}
	if err := json.Unmarshal(body, &rz); err == nil {
		for _, name := range rz.Releases {
			releases[name] = true
		}
	}
	if rep.markSuccess(releases) {
		c.metrics.readmissions.Add(1)
		c.logf("cluster: replica %s re-admitted (readyz ok, %d release(s))", rep.url, len(releases))
	}
}

// probeFailureThreshold caps how many failed probes an unreachable
// replica survives: a probe is a deliberate health check, so two
// misses in a row are decisive — this is what bounds eviction of an
// idle (no live traffic) replica to two probe intervals.
const probeFailureThreshold = 2

func (c *Coordinator) noteProbeFailure(rep *replica, err error) {
	rep.probeFails.Add(1)
	threshold := c.cfg.FailureThreshold
	if threshold > probeFailureThreshold {
		threshold = probeFailureThreshold
	}
	if rep.markFailure(threshold) {
		c.metrics.evictions.Add(1)
		c.logf("cluster: replica %s evicted (probe: %v)", rep.url, err)
	}
}

// noteRequestFailure records a failed live request against the breaker.
// A cancelled attempt (a losing hedge, or the client walking away) is
// the coordinator's doing, not the replica's, and is not recorded; a
// deadline expiry is the replica's.
func (c *Coordinator) noteRequestFailure(rep *replica, err error) {
	if errors.Is(err, context.Canceled) {
		return
	}
	rep.failures.Add(1)
	if rep.markFailure(c.cfg.FailureThreshold) {
		c.metrics.evictions.Add(1)
		c.logf("cluster: replica %s evicted (request: %v)", rep.url, err)
	}
}

// noteStatus records a replica's answer against its breaker: a
// breakerStatus is a failure, any other status a success.
func (c *Coordinator) noteStatus(rep *replica, resp *http.Response) {
	if breakerStatus(resp.StatusCode) {
		c.noteRequestFailure(rep, fmt.Errorf("status %s", resp.Status))
	} else if rep.markSuccess(nil) {
		c.metrics.readmissions.Add(1)
		c.logf("cluster: replica %s re-admitted (live request ok)", rep.url)
	}
}

// candidates assembles the release's replica preference order: the
// hash-selected working set first (healthy members, round-robin
// rotated so load spreads inside the set), then healthy spillover
// replicas outside the set, then — only when nothing is healthy — one
// evicted replica willing to run a half-open trial. Replicas whose
// probed release set excludes the release sort last among their tier.
// The rendezvous order stays on the stack for pools of up to
// len(buf), so the returned slice is the call's one allocation.
func (c *Coordinator) candidates(release string) []*replica {
	var buf [16]ranked
	order := rendezvous(buf[:0], c.snapshotReplicas(), release)
	k := c.cfg.ReplicationFactor
	if k <= 0 || k > len(order) {
		k = len(order)
	}
	for i := range order {
		healthy, holds := order[i].rep.routable(release)
		switch {
		case !healthy:
			order[i].tier = tierOut
		case !holds:
			order[i].tier = tierNonHolder
		case i < k:
			order[i].tier = tierSet
		default:
			order[i].tier = tierSpill
		}
	}
	cands := make([]*replica, 0, len(order))
	for tier := tierSet; tier < tierOut; tier++ {
		for _, r := range order {
			if r.tier == tier {
				cands = append(cands, r.rep)
			}
		}
		// Rotate inside the working set so a single hot release spreads
		// over its whole replica set instead of hammering the primary.
		if tier == tierSet && len(cands) > 1 {
			off := int(c.rr.Add(1)) % len(cands)
			slices.Reverse(cands[:off])
			slices.Reverse(cands[off:])
			slices.Reverse(cands)
		}
	}
	if len(cands) > 0 {
		return cands
	}
	// Nothing healthy: offer one half-open trial on an evicted replica
	// whose cooldown (one probe interval) has passed, so traffic itself
	// can re-admit the pool even if the prober is slow.
	for _, r := range order {
		if r.rep.tryTrial(c.cfg.ProbeInterval) {
			return append(cands, r.rep)
		}
	}
	return nil
}

// Routing tiers of a replica for one release, in preference order.
const (
	tierSet       = iota // healthy, holds the release, in the working set
	tierSpill            // healthy, holds the release, outside the set
	tierNonHolder        // healthy, but its last probe did not list the release
	tierOut              // breaker open: routed to only as a half-open trial
)

// ranked is a replica with its rendezvous score for one key, and its
// routing tier once candidates has judged it.
type ranked struct {
	score uint64
	rep   *replica
	tier  int
}

// rendezvous appends reps to dst in rendezvous (highest-random-weight)
// order for key: each replica scores mix64(hash64(key) ^ seed) and the
// order is by descending score. The first entry is the key's primary
// owner, the rest its failover preference; a replica joining the pool
// takes over only the keys it outscores every member on, and the
// relative order of the others never changes.
func rendezvous(dst []ranked, reps []*replica, key string) []ranked {
	h := hash64(key)
	for _, rep := range reps {
		dst = append(dst, ranked{score: mix64(h ^ rep.seed), rep: rep})
	}
	slices.SortFunc(dst, func(a, b ranked) int { return cmp.Compare(b.score, a.score) })
	return dst
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never fails
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer, a 64-bit bijection in which each
// input bit flips each output bit with probability about one half: the
// XOR of a key hash and a seed shares structure across keys, and the
// mix leaves none of it in the scores.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// requestDeadline resolves the end-to-end deadline for one client
// request: the coordinator default, shortened (never extended) by an
// X-Request-Timeout header carrying a Go duration.
func (c *Coordinator) requestDeadline(r *http.Request) time.Duration {
	d := c.cfg.RequestTimeout
	if h := r.Header.Get("X-Request-Timeout"); h != "" {
		if v, err := time.ParseDuration(h); err == nil && v > 0 && v < d {
			d = v
		}
	}
	return d
}

// takeRetryToken spends one retry-budget token; false means the budget
// is exhausted and the caller must not retry or hedge.
func (c *Coordinator) takeRetryToken() bool {
	if c.retryTokens.Add(-1000) >= 0 {
		return true
	}
	c.retryTokens.Add(1000) // put it back; stay clamped at the floor
	c.metrics.budgetExhausted.Add(1)
	return false
}

// earnRetryCredit accrues budget from live traffic: every request adds
// RetryBudget tokens, clamped at the burst ceiling.
func (c *Coordinator) earnRetryCredit() {
	credit := int64(c.cfg.RetryBudget * 1000)
	if v := c.retryTokens.Add(credit); v > int64(retryBudgetBurst*1000) {
		c.retryTokens.Add(int64(retryBudgetBurst*1000) - v)
	}
}

// backoffDelay returns the jittered exponential backoff before retry
// attempt n (1-based): base * 2^(n-1), +-50% jitter.
func (c *Coordinator) backoffDelay(n int) time.Duration {
	d := c.cfg.RetryBackoff << uint(n-1)
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	c.jitterMu.Lock()
	f := 0.5 + c.jitterRNG.Float64()
	c.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// hedgeDelay resolves the current hedge delay: the configured one, or
// the cached p99 of observed point latencies (recomputed every
// hedgeRecomputeEvery samples), floored at DefaultHedgeFloor.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay != 0 {
		return c.cfg.HedgeDelay
	}
	if ns := c.hedgeNS.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return DefaultHedgeFloor
}

const hedgeRecomputeEvery = 64

// observePointLatency feeds the hedge-delay estimator.
func (c *Coordinator) observePointLatency(d time.Duration) {
	n := c.lat.record(d)
	if n%hedgeRecomputeEvery == 0 {
		p99 := c.lat.p99()
		if p99 < DefaultHedgeFloor {
			p99 = DefaultHedgeFloor
		}
		c.hedgeNS.Store(int64(p99))
	}
}

// latencySampler is a small lock-free ring of recent point latencies
// for the p99 hedge-delay estimate.
type latencySampler struct {
	n    atomic.Uint64
	ring [latencySamples]atomic.Int64
}

const latencySamples = 512

func (l *latencySampler) record(d time.Duration) uint64 {
	i := l.n.Add(1) - 1
	l.ring[i%uint64(len(l.ring))].Store(int64(d))
	return i + 1
}

func (l *latencySampler) p99() time.Duration {
	n := l.n.Load()
	if n == 0 {
		return 0
	}
	// It runs on every hedgeRecomputeEvery-th point request, so the
	// copy stays on the stack.
	var buf [latencySamples]int64
	s := buf[:min(n, latencySamples)]
	for i := range s {
		s[i] = l.ring[i].Load()
	}
	slices.Sort(s)
	return time.Duration(s[int(0.99*float64(len(s)-1))])
}

// ---------------------------------------------------------------------
// Proxy plumbing

// proxyResult is one buffered downstream answer.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
	rep    *replica
	hedged bool
}

// retryableStatus reports whether a downstream status is a replica
// failure worth trying elsewhere (5xx) or a shed worth failing over
// (429) rather than a client error to pass through.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// breakerStatus reports whether the status should count against the
// replica's breaker: 5xx does, 429 is load shedding, not sickness.
func breakerStatus(status int) bool { return status >= 500 }

// forwardedHeaders are the client request headers every proxied
// attempt carries.
var forwardedHeaders = [...]string{"Content-Type", "If-None-Match"}

// send is the one place a proxied request leaves for a replica: it
// counts the attempt, forwards the client's forwardedHeaders, and hands
// the request straight to the transport. A context deadline also rides
// an X-Request-Deadline-Ms header so a replica (or a human reading
// chaos logs) can see the budget it got. A transport failure feeds the
// breaker (see noteRequestFailure); an answer's status is the caller's
// to record with noteStatus once it has judged the body.
func (c *Coordinator) send(ctx context.Context, rep *replica, method, pathq string, in http.Header, body io.Reader) (*http.Response, error) {
	c.metrics.proxied.Add(1)
	rep.requests.Add(1)
	req, err := http.NewRequestWithContext(ctx, method, rep.url+pathq, body)
	if err != nil {
		return nil, err
	}
	for _, h := range forwardedHeaders {
		if v := in.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set("X-Request-Deadline-Ms", strconv.FormatInt(time.Until(dl).Milliseconds(), 10))
	}
	resp, err := c.cfg.Transport.RoundTrip(req)
	if err != nil {
		c.noteRequestFailure(rep, err)
		return nil, err
	}
	return resp, nil
}

// sendOnce performs one buffered downstream attempt against rep.
func (c *Coordinator) sendOnce(ctx context.Context, rep *replica, method, pathq string, in http.Header, body []byte) (proxyResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	resp, err := c.send(ctx, rep, method, pathq, in, rd)
	if err != nil {
		return proxyResult{}, err
	}
	defer resp.Body.Close()
	// The replica is healthy and any other replica would give the same
	// answer: an oversized one gets no breaker entry and no retry (see
	// execute). A declared length is refused before its body is read,
	// and sizes the buffer so the answer costs one allocation.
	if resp.ContentLength > c.cfg.MaxBodyBytes {
		return proxyResult{}, c.answerTooLarge()
	}
	var respBody []byte
	if resp.ContentLength >= 0 {
		respBody = make([]byte, 0, resp.ContentLength+1)
	}
	respBody, err = serve.ReadBodyLimit(respBody, resp.Body, c.cfg.MaxBodyBytes)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return proxyResult{}, c.answerTooLarge()
		}
		c.noteRequestFailure(rep, err)
		return proxyResult{}, err
	}
	c.noteStatus(rep, resp)
	return proxyResult{status: resp.StatusCode, header: resp.Header, body: respBody, rep: rep}, nil
}

// errNoReplicas marks a request that found no routable replica at all.
var errNoReplicas = errors.New("no healthy replica")

// errAnswerTooLarge marks a replica answer over MaxBodyBytes.
var errAnswerTooLarge = errors.New("replica answer exceeds the coordinator body limit")

func (c *Coordinator) answerTooLarge() error {
	return fmt.Errorf("%w of %d bytes; split the request", errAnswerTooLarge, c.cfg.MaxBodyBytes)
}

// execute routes one buffered request with retries (and hedging for
// point queries): attempts walk the candidate order with jittered
// backoff, each bounded by the remaining deadline and the retry
// budget.
func (c *Coordinator) execute(ctx context.Context, release, method, pathq string, in http.Header, body []byte, hedge bool) (proxyResult, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return proxyResult{}, err
		}
		cands := c.candidates(release)
		if len(cands) == 0 {
			if lastErr == nil {
				lastErr = errNoReplicas
			}
			return proxyResult{}, lastErr
		}
		if attempt > 0 {
			// Paying for this retry: budget first, then backoff inside
			// the remaining deadline.
			if !c.takeRetryToken() {
				return proxyResult{}, lastErr
			}
			c.metrics.retries.Add(1)
			select {
			case <-time.After(c.backoffDelay(attempt)):
			case <-ctx.Done():
				return proxyResult{}, ctx.Err()
			}
		}
		var res proxyResult
		var err error
		if hedge && c.cfg.HedgeDelay >= 0 && len(cands) > 1 {
			res, err = c.attemptHedged(ctx, cands, method, pathq, in, body)
		} else {
			res, err = c.sendOnce(ctx, cands[0], method, pathq, in, body)
		}
		if errors.Is(err, errAnswerTooLarge) {
			return proxyResult{}, err
		}
		if err != nil {
			lastErr = err
			continue
		}
		if retryableStatus(res.status) {
			lastErr = fmt.Errorf("replica %s answered status %d", res.rep.url, res.status)
			continue
		}
		return res, nil
	}
	return proxyResult{}, lastErr
}

// attemptHedged runs the primary candidate on the calling goroutine
// and races one hedge against it on cands[1] once the hedge delay has
// passed; the first usable answer wins and the loser's context is
// cancelled. A primary that fails before the delay is hedged at once:
// the delay only ever served to avoid duplicating healthy work. The
// answer returned may still carry a retryable status for execute to
// judge.
func (c *Coordinator) attemptHedged(ctx context.Context, cands []*replica, method, pathq string, in http.Header, body []byte) (proxyResult, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	race := new(hedgeRace)
	race.wg.Add(1)
	hedge := func() {
		defer race.wg.Done()
		if !c.takeRetryToken() {
			return
		}
		c.metrics.hedges.Add(1)
		res, err := c.sendOnce(actx, cands[1], method, pathq, in, body)
		res.hedged = true
		race.res, race.err, race.sent = res, err, true
		if usable(res, err) && race.won.CompareAndSwap(false, true) {
			cancel() // the primary lost
		}
	}
	timer := time.AfterFunc(c.hedgeDelay(), hedge)
	res, err := c.sendOnce(actx, cands[0], method, pathq, in, body)
	switch {
	case usable(res, err) && race.won.CompareAndSwap(false, true),
		errors.Is(err, errAnswerTooLarge):
		timer.Stop()
		return res, err
	case ctx.Err() != nil:
		timer.Stop()
		return proxyResult{}, ctx.Err()
	}
	if timer.Stop() {
		hedge()
	} else {
		race.wg.Wait() // the hedge is in flight, or the budget refused it
	}
	if !race.sent {
		return res, err
	}
	if race.won.Load() {
		c.metrics.hedgeWins.Add(1)
	}
	return race.res, race.err
}

// hedgeRace is what a hedge shares with the primary attempt it races:
// the hedge's outcome, published when wg is done, and which side's
// answer won.
type hedgeRace struct {
	won  atomic.Bool
	wg   sync.WaitGroup
	sent bool // the budget paid for the hedge and it was sent
	res  proxyResult
	err  error
}

// usable reports whether an attempt produced an answer to pass on.
func usable(res proxyResult, err error) bool {
	return err == nil && !retryableStatus(res.status)
}
