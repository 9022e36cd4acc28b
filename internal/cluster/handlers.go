package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/dpgraph"
	"repro/internal/serve"
)

// Handler returns the coordinator's HTTP routing table. Query traffic
// mirrors the replica API (a client cannot tell a coordinator from a
// single daemon), plus the pool-management endpoints:
//
//	POST   /v1/replicas                    register a replica {"url": "http://host:port"}
//	GET    /v1/replicas                    replica pool with breaker states and counters
//	GET    /livez                          coordinator process liveness
//	GET    /readyz                         >= 1 routable replica (or a local fallback)
//	GET    /metrics                        routing counters (retries, hedges, evictions, ...)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /livez", c.handleLivez)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /v1/replicas", c.handleReplicaList)
	mux.HandleFunc("POST /v1/replicas", c.handleReplicaRegister)
	mux.HandleFunc("GET /v1/releases", c.handleReleaseList)
	mux.HandleFunc("POST /v1/releases", c.handleUnroutable)
	mux.HandleFunc("DELETE /v1/releases/{name}", c.handleUnroutable)
	mux.HandleFunc("POST /v1/releases/{name}", c.handleUnroutable) // {name}:import
	mux.HandleFunc("GET /v1/releases/{name}/snapshot", c.handleSnapshotProxy)
	mux.HandleFunc("GET /v1/releases/{name}/distance", c.handlePoint)
	mux.HandleFunc("POST /v1/releases/{name}/distance", c.handlePoint)
	mux.HandleFunc("POST /v1/releases/{name}/distances", c.handleBatch)
	mux.HandleFunc("POST /v1/releases/{name}/distances:stream", c.handleStreamProxy)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return mux
}

type errorEnvelope struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

func (c *Coordinator) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "alive"})
}

// handleReadyz: the coordinator is ready when it can route somewhere —
// at least one replica with a closed breaker, or a local fallback.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	reps := c.snapshotReplicas()
	for _, rep := range reps {
		if rep.healthy() {
			healthy++
		}
	}
	resp := struct {
		Status    string `json:"status"`
		Replicas  int    `json:"replicas"`
		Healthy   int    `json:"healthy"`
		Fallbacks int    `json:"fallback_releases"`
	}{Status: "ready", Replicas: len(reps), Healthy: healthy, Fallbacks: len(c.fallback)}
	status := http.StatusOK
	switch {
	case c.draining.Load():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	case healthy == 0 && len(c.fallback) == 0:
		resp.Status = "no routable replicas"
		status = http.StatusServiceUnavailable
	}
	if status != http.StatusOK {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, resp)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := struct {
		UptimeSeconds        float64                  `json:"uptime_seconds"`
		Requests             uint64                   `json:"requests"`
		Proxied              uint64                   `json:"proxied_attempts"`
		Retries              uint64                   `json:"retries"`
		Hedges               uint64                   `json:"hedges"`
		HedgeWins            uint64                   `json:"hedge_wins"`
		RetryBudgetExhausted uint64                   `json:"retry_budget_exhausted"`
		Evictions            uint64                   `json:"evictions"`
		Readmissions         uint64                   `json:"readmissions"`
		FallbackServed       uint64                   `json:"fallback_served"`
		Unavailable503       uint64                   `json:"unavailable_503"`
		DeadlineExpired      uint64                   `json:"deadline_expired"`
		HedgeDelayMS         float64                  `json:"hedge_delay_ms"`
		Replicas             map[string]replicaStatus `json:"replicas"`
	}{
		UptimeSeconds:        time.Since(c.started).Seconds(),
		Requests:             c.metrics.requests.Load(),
		Proxied:              c.metrics.proxied.Load(),
		Retries:              c.metrics.retries.Load(),
		Hedges:               c.metrics.hedges.Load(),
		HedgeWins:            c.metrics.hedgeWins.Load(),
		RetryBudgetExhausted: c.metrics.budgetExhausted.Load(),
		Evictions:            c.metrics.evictions.Load(),
		Readmissions:         c.metrics.readmissions.Load(),
		FallbackServed:       c.metrics.fallbackServed.Load(),
		Unavailable503:       c.metrics.unavailable.Load(),
		DeadlineExpired:      c.metrics.deadlineExpired.Load(),
		HedgeDelayMS:         float64(c.hedgeDelay()) / float64(time.Millisecond),
		Replicas:             map[string]replicaStatus{},
	}
	for _, rep := range c.snapshotReplicas() {
		out.Replicas[rep.url] = rep.status()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleReplicaRegister adds a replica to the pool and probes it
// synchronously so the response already reflects its health.
func (c *Coordinator) handleReplicaRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad registration body: %v", err)
		return
	}
	rep, err := c.addReplica(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.probeOne(rep)
	c.logf("cluster: replica %s registered (%s)", rep.url, rep.status().State)
	writeJSON(w, http.StatusCreated, rep.status())
}

func (c *Coordinator) handleReplicaList(w http.ResponseWriter, r *http.Request) {
	reps := c.snapshotReplicas()
	out := struct {
		Replicas []replicaStatus `json:"replicas"`
	}{Replicas: make([]replicaStatus, 0, len(reps))}
	for _, rep := range reps {
		out.Replicas = append(out.Replicas, rep.status())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleUnroutable refuses release-mutating endpoints: a coordinator
// that materialized a release on one replica would leave the pool
// serving different noise per replica (each materialization draws
// fresh noise), which breaks the any-replica-can-answer contract.
// Releases reach a fleet as sealed snapshots instead.
func (c *Coordinator) handleUnroutable(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotImplemented,
		"the coordinator does not proxy release lifecycle operations: materializing through the pool would give every replica different noise; distribute sealed snapshots to the replicas' -snapshot-dir (or POST :import to each) instead")
}

// proxyHeaders copies the downstream answer headers worth forwarding.
func proxyHeaders(w http.ResponseWriter, res proxyResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if etag := res.header.Get("ETag"); etag != "" {
		w.Header().Set("ETag", etag)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Served-By", res.rep.url)
	if res.hedged {
		w.Header().Set("X-Hedged", "1")
	}
}

// handlePoint proxies one point query with retries and hedging.
func (c *Coordinator) handlePoint(w http.ResponseWriter, r *http.Request) {
	c.metrics.requests.Add(1)
	c.earnRetryCredit()
	release := r.PathValue("name")
	body, contentType, ok := c.bufferBody(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.requestDeadline(r))
	defer cancel()
	start := time.Now()
	res, err := c.execute(ctx, release, r.Method, requestPathQuery(r), contentType, body, true)
	if err != nil {
		c.answerFallbackOrError(w, r, release, err, body)
		return
	}
	c.observePointLatency(time.Since(start))
	proxyHeaders(w, res)
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // the response is already committed
}

// handleBatch proxies one batch query with retries (no hedging: batch
// answers are big enough that duplicating them is rarely worth it).
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	c.metrics.requests.Add(1)
	c.earnRetryCredit()
	release := r.PathValue("name")
	body, contentType, ok := c.bufferBody(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.requestDeadline(r))
	defer cancel()
	res, err := c.execute(ctx, release, r.Method, requestPathQuery(r), contentType, body, false)
	if err != nil {
		c.answerFallbackOrError(w, r, release, err, body)
		return
	}
	proxyHeaders(w, res)
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // the response is already committed
}

// handleReleaseList proxies the release listing to the first replica
// that answers; bodies are tiny so failover just retries the GET.
func (c *Coordinator) handleReleaseList(w http.ResponseWriter, r *http.Request) {
	c.metrics.requests.Add(1)
	c.earnRetryCredit()
	ctx, cancel := context.WithTimeout(r.Context(), c.requestDeadline(r))
	defer cancel()
	res, err := c.execute(ctx, "", http.MethodGet, "/v1/releases", "", nil, false)
	if err != nil {
		c.writeRouteError(w, err)
		return
	}
	proxyHeaders(w, res)
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // the response is already committed
}

// handleSnapshotProxy forwards a snapshot download, streaming the
// artifact through instead of buffering it (artifacts reach hundreds
// of MiB); failover happens only before the first response byte.
func (c *Coordinator) handleSnapshotProxy(w http.ResponseWriter, r *http.Request) {
	c.metrics.requests.Add(1)
	c.earnRetryCredit()
	release := r.PathValue("name")
	ctx, cancel := context.WithTimeout(r.Context(), c.requestDeadline(r))
	defer cancel()
	cands := c.candidates(release)
	if len(cands) == 0 {
		c.writeRouteError(w, errNoReplicas)
		return
	}
	var lastErr error
	for _, rep := range cands {
		c.metrics.proxied.Add(1)
		rep.requests.Add(1)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+requestPathQuery(r), nil)
		if err != nil {
			c.writeRouteError(w, err)
			return
		}
		if inm := r.Header.Get("If-None-Match"); inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := c.client.Do(req)
		if err != nil {
			c.noteRequestFailure(rep, err)
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
			resp.Body.Close()
			if breakerStatus(resp.StatusCode) {
				c.noteRequestFailure(rep, fmt.Errorf("status %s", resp.Status))
			}
			lastErr = fmt.Errorf("replica %s answered status %d", rep.url, resp.StatusCode)
			continue
		}
		c.noteRequestSuccess(rep)
		for _, h := range []string{"Content-Type", "Content-Disposition", "ETag"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set("X-Served-By", rep.url)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body) //nolint:errcheck // the response is already committed
		resp.Body.Close()
		return
	}
	c.writeRouteError(w, lastErr)
}

// handleStreamProxy forwards the pipelined NDJSON endpoint to one
// replica. The request body streams through unbuffered, so there is no
// retry once routing picked a replica: a mid-stream failure surfaces
// to the client, which re-opens the stream (and routing will have
// evicted the failed replica by then).
func (c *Coordinator) handleStreamProxy(w http.ResponseWriter, r *http.Request) {
	c.metrics.requests.Add(1)
	c.earnRetryCredit()
	release := r.PathValue("name")
	cands := c.candidates(release)
	if len(cands) == 0 {
		c.writeRouteError(w, errNoReplicas)
		return
	}
	rep := cands[0]
	c.metrics.proxied.Add(1)
	rep.requests.Add(1)
	// Streams run without the point/batch deadline: they live as long
	// as the client keeps pouring queries. The client's own context
	// still cancels the proxy leg.
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, rep.url+requestPathQuery(r), r.Body)
	if err != nil {
		c.writeRouteError(w, err)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	resp, err := c.client.Do(req)
	if err != nil {
		c.noteRequestFailure(rep, err)
		c.writeRouteError(w, err)
		return
	}
	defer resp.Body.Close()
	if breakerStatus(resp.StatusCode) {
		c.noteRequestFailure(rep, fmt.Errorf("status %s", resp.Status))
	} else {
		c.noteRequestSuccess(rep)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Served-By", rep.url)
	// Full duplex for the same reason the replica needs it: the client
	// is still writing queries while answers flow back.
	http.NewResponseController(w).EnableFullDuplex() //nolint:errcheck
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// bufferBody reads a request body fully (bounded) so attempts can be
// retried and hedged; GET requests pass through with a nil body.
func (c *Coordinator) bufferBody(w http.ResponseWriter, r *http.Request) (body []byte, contentType string, ok bool) {
	if r.Body == nil || r.Method == http.MethodGet {
		return nil, "", true
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return nil, "", false
	}
	return data, r.Header.Get("Content-Type"), true
}

// requestPathQuery rebuilds the downstream path + raw query.
func requestPathQuery(r *http.Request) string {
	if r.URL.RawQuery != "" {
		return r.URL.Path + "?" + r.URL.RawQuery
	}
	return r.URL.Path
}

// answerFallbackOrError is the graceful-degradation tail of a failed
// route: answer from the local snapshot fallback when one holds the
// release, otherwise map the routing failure onto a client status.
func (c *Coordinator) answerFallbackOrError(w http.ResponseWriter, r *http.Request, release string, routeErr error, body []byte) {
	if fb, ok := c.fallbackFor(release); ok {
		if c.serveFallback(w, r, release, fb, body) {
			c.metrics.fallbackServed.Add(1)
			return
		}
		return // serveFallback wrote its own error
	}
	c.writeRouteError(w, routeErr)
}

// writeRouteError maps a routing failure onto a status: 504 when the
// request deadline expired, 503 + Retry-After when no replica was
// routable, 502 for pool-wide failures.
func (c *Coordinator) writeRouteError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		c.metrics.deadlineExpired.Add(1)
		writeError(w, http.StatusGatewayTimeout, "request deadline expired while routing: %v", err)
	case errors.Is(err, errNoReplicas):
		c.metrics.unavailable.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(c.cfg.ProbeInterval.Seconds()))+1))
		writeError(w, http.StatusServiceUnavailable, "no healthy replica for this request; pool recovery is probe-driven, retry shortly")
	default:
		c.metrics.unavailable.Add(1)
		writeError(w, http.StatusBadGateway, "all replica attempts failed: %v", err)
	}
}

// serveFallback answers a point or batch distance query from the local
// snapshot oracle, in the same wire shapes the replicas use. Reports
// whether a (possibly error) response was written as a served answer.
func (c *Coordinator) serveFallback(w http.ResponseWriter, r *http.Request, release string, fb *fallbackRelease, body []byte) bool {
	w.Header().Set("X-Served-By", "local-fallback")
	switch {
	case strings.HasSuffix(r.URL.Path, "/distance"):
		s, t, err := fallbackPointPair(r, body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return true
		}
		v, err := fb.oracle.Distance(s, t)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return true
		}
		writeJSON(w, http.StatusOK, serve.PairAnswer{S: s, T: t, Value: v})
		return true
	case strings.HasSuffix(r.URL.Path, "/distances"):
		pairs, err := serve.ParsePairs(body)
		if err == nil && len(pairs) == 0 {
			err = serve.ErrNoPairs
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return true
		}
		vals, err := fb.oracle.Distances(pairs)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return true
		}
		results := make([]serve.PairAnswer, len(pairs))
		for i, p := range pairs {
			results[i] = serve.PairAnswer{S: p.S, T: p.T, Value: vals[i]}
		}
		writeJSON(w, http.StatusOK, struct {
			Mechanism string             `json:"mechanism"`
			Count     int                `json:"count"`
			Bound     *float64           `json:"bound"`
			Gamma     float64            `json:"gamma"`
			Receipt   dpgraph.Receipt    `json:"receipt"`
			Results   []serve.PairAnswer `json:"results"`
		}{
			Mechanism: fb.info.Mechanism,
			Count:     len(pairs),
			Bound:     serve.FiniteOrNil(fb.bound),
			Gamma:     dpgraph.DefaultGamma,
			Receipt:   fb.info.Receipt,
			Results:   results,
		})
		return true
	default:
		return false
	}
}

// fallbackPointPair extracts the s-t pair of a point query from the
// URL (GET) or the buffered body (POST).
func fallbackPointPair(r *http.Request, body []byte) (s, t int, err error) {
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		s, err1 := strconv.Atoi(q.Get("s"))
		t, err2 := strconv.Atoi(q.Get("t"))
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("want integer query parameters s and t, got s=%q t=%q", q.Get("s"), q.Get("t"))
		}
		return s, t, nil
	}
	var p struct {
		S *int `json:"s"`
		T *int `json:"t"`
	}
	if err := json.Unmarshal(body, &p); err != nil {
		return 0, 0, fmt.Errorf("bad pair body: %w", err)
	}
	if p.S == nil || p.T == nil {
		return 0, 0, fmt.Errorf(`bad pair body: want both "s" and "t"`)
	}
	return *p.S, *p.T, nil
}
