package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

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
	point, buffered := c.handleBuffered(true), c.handleBuffered(false)
	mux.HandleFunc("GET /v1/releases", buffered)
	mux.HandleFunc("POST /v1/releases", c.handleUnroutable)
	mux.HandleFunc("DELETE /v1/releases/{name}", c.handleUnroutable)
	mux.HandleFunc("POST /v1/releases/{name}", c.handleUnroutable) // {name}:import
	mux.HandleFunc("GET /v1/releases/{name}/snapshot", c.handleSnapshotProxy)
	mux.HandleFunc("GET /v1/releases/{name}/distance", point)
	mux.HandleFunc("POST /v1/releases/{name}/distance", point)
	mux.HandleFunc("POST /v1/releases/{name}/distances", buffered)
	mux.HandleFunc("POST /v1/releases/{name}/distances:stream", c.handleStreamProxy)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return mux
}

func (c *Coordinator) handleLivez(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, struct {
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
	}{Status: "ready", Replicas: len(reps), Healthy: healthy, Fallbacks: c.fallbackLoaded}
	status := http.StatusOK
	switch {
	case c.draining.Load():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	case healthy == 0 && c.fallbackLoaded == 0:
		resp.Status = "no routable replicas"
		status = http.StatusServiceUnavailable
	}
	if status != http.StatusOK {
		w.Header().Set("Retry-After", "1")
	}
	serve.WriteJSON(w, status, resp)
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
	serve.WriteJSON(w, http.StatusOK, out)
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
		serve.WriteError(w, http.StatusBadRequest, "bad registration body: %v", err)
		return
	}
	rep, err := c.addReplica(req.URL)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.probeOne(rep)
	c.logf("cluster: replica %s registered (%s)", rep.url, rep.status().State)
	serve.WriteJSON(w, http.StatusCreated, rep.status())
}

func (c *Coordinator) handleReplicaList(w http.ResponseWriter, r *http.Request) {
	reps := c.snapshotReplicas()
	out := struct {
		Replicas []replicaStatus `json:"replicas"`
	}{Replicas: make([]replicaStatus, 0, len(reps))}
	for _, rep := range reps {
		out.Replicas = append(out.Replicas, rep.status())
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

// handleUnroutable refuses release-mutating endpoints: a coordinator
// that materialized a release on one replica would leave the pool
// serving different noise per replica (each materialization draws
// fresh noise), which breaks the any-replica-can-answer contract.
// Releases reach a fleet as sealed snapshots instead.
func (c *Coordinator) handleUnroutable(w http.ResponseWriter, r *http.Request) {
	serve.WriteError(w, http.StatusNotImplemented,
		"the coordinator does not proxy release lifecycle operations: materializing through the pool would give every replica different noise; distribute sealed snapshots to the replicas' -snapshot-dir (or POST :import to each) instead")
}

// answerHeaders are the replica answer headers a proxied answer keeps.
var answerHeaders = [...]string{"Content-Type", "Content-Disposition", "ETag", "Location", "Retry-After"}

// proxyHeaders copies a replica answer's answerHeaders and names the
// replica that gave it.
func proxyHeaders(w http.ResponseWriter, h http.Header, rep *replica) {
	for _, k := range answerHeaders {
		if v := h.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("X-Served-By", rep.url)
}

// handleBuffered proxies a request whose body is buffered so attempts
// can be retried: point queries (point true) and, with point false,
// batches and the release listing. A point query also hedges and feeds
// the hedge delay's latency sample; a batch answer is big enough that
// duplicating it is rarely worth it.
func (c *Coordinator) handleBuffered(point bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.metrics.requests.Add(1)
		c.earnRetryCredit()
		release := r.PathValue("name")
		// The body is read whole, under the replica's limit and with its
		// 413, so attempts can be retried and hedged; a GET has none. It
		// is not pooled: a hedge can still be sending it after the
		// request is answered.
		var body []byte
		if r.Method != http.MethodGet {
			var err error
			if body, err = serve.ReadBodyLimit(nil, r.Body, c.cfg.MaxBodyBytes); err != nil {
				serve.WriteBodyError(w, err)
				return
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), c.requestDeadline(r))
		defer cancel()
		start := time.Now()
		res, err := c.execute(ctx, release, r.Method, requestPathQuery(r), r.Header, body, point)
		if err != nil {
			c.answerFallbackOrError(w, replayBody(r, body), release, err)
			return
		}
		if point {
			c.observePointLatency(time.Since(start))
		}
		proxyHeaders(w, res.header, res.rep)
		if res.hedged {
			w.Header().Set("X-Hedged", "1")
		}
		w.WriteHeader(res.status)
		w.Write(res.body) //nolint:errcheck // the response is already committed
	}
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
	lastErr := errNoReplicas
	for _, rep := range c.candidates(release) {
		resp, err := c.send(ctx, rep, http.MethodGet, requestPathQuery(r), r.Header, nil)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break // no other replica can answer in time either
			}
			continue
		}
		c.noteStatus(rep, resp)
		if retryableStatus(resp.StatusCode) {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
			resp.Body.Close()
			lastErr = fmt.Errorf("replica %s answered status %d", rep.url, resp.StatusCode)
			continue
		}
		proxyHeaders(w, resp.Header, rep)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body) //nolint:errcheck // the response is already committed
		resp.Body.Close()
		return
	}
	c.writeRouteError(w, r, lastErr)
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
		c.answerFallbackOrError(w, r, release, errNoReplicas)
		return
	}
	rep := cands[0]
	// Streams run without the point/batch deadline: they live as long
	// as the client keeps pouring queries. The client's own context
	// still cancels the proxy leg.
	resp, err := c.send(r.Context(), rep, http.MethodPost, requestPathQuery(r), r.Header, r.Body)
	if err != nil {
		c.writeRouteError(w, r, err)
		return
	}
	defer resp.Body.Close()
	c.noteStatus(rep, resp)
	proxyHeaders(w, resp.Header, rep)
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

// requestPathQuery rebuilds the downstream path + raw query.
func requestPathQuery(r *http.Request) string {
	if r.URL.RawQuery != "" {
		return r.URL.Path + "?" + r.URL.RawQuery
	}
	return r.URL.Path
}

// answerFallbackOrError is the graceful-degradation tail of a failed
// route: the coordinator's restore-only local replica answers when it
// holds the release (through the replica's own handlers, so the wire
// format, validation, and error bound match a replica's exactly),
// otherwise the routing failure maps onto a client status.
func (c *Coordinator) answerFallbackOrError(w http.ResponseWriter, r *http.Request, release string, routeErr error) {
	// An oversized answer is the request's fault, not the pool's, and a
	// client that hung up has nobody left to serve.
	if errors.Is(routeErr, errAnswerTooLarge) || clientGone(r, routeErr) || !c.fallback.Has(release) {
		c.writeRouteError(w, r, routeErr)
		return
	}
	c.metrics.fallbackServed.Add(1)
	w.Header().Set("X-Served-By", "local-fallback")
	c.fallbackHandler.ServeHTTP(w, r)
}

// replayBody returns a clone of r whose body replays the buffered
// bytes, for handing an already-read request to the local fallback.
func replayBody(r *http.Request, body []byte) *http.Request {
	r = r.Clone(r.Context())
	r.Body = io.NopCloser(bytes.NewReader(body))
	return r
}

// clientGone reports whether a routing failure is the request's own
// cancellation: the client hung up, so no replica and no pool failed.
func clientGone(r *http.Request, err error) bool {
	return errors.Is(err, context.Canceled) && r.Context().Err() != nil
}

// writeRouteError maps a routing failure onto a status: 504 when the
// request deadline expired, 503 + Retry-After when no replica was
// routable, 502 for an answer over MaxBodyBytes and for pool-wide
// failures. A client that hung up gets a 502 that nobody reads and
// counts as neither.
func (c *Coordinator) writeRouteError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case clientGone(r, err):
		serve.WriteError(w, http.StatusBadGateway, "the client cancelled the request: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		c.metrics.deadlineExpired.Add(1)
		serve.WriteError(w, http.StatusGatewayTimeout, "request deadline expired while routing: %v", err)
	case errors.Is(err, errNoReplicas):
		c.metrics.unavailable.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(c.cfg.ProbeInterval.Seconds()))+1))
		serve.WriteError(w, http.StatusServiceUnavailable, "no healthy replica for this request; pool recovery is probe-driven, retry shortly")
	case errors.Is(err, errAnswerTooLarge):
		serve.WriteError(w, http.StatusBadGateway, "%v", err)
	default:
		c.metrics.unavailable.Add(1)
		serve.WriteError(w, http.StatusBadGateway, "all replica attempts failed: %v", err)
	}
}
