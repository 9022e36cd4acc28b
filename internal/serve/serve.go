// Package serve is the HTTP distance-serving layer over the dpgraph
// release-once/query-many machinery: a long-running daemon materializes
// named, independently budgeted releases (each spending its privacy
// budget exactly once) and then answers unboundedly many point and
// batch distance queries from the releases' oracles as free
// post-processing — the serving-side realization of the paper's central
// economic property.
//
// Endpoints:
//
//	POST   /v1/releases                    materialize a release from a mechanism+args spec
//	GET    /v1/releases                    list releases with receipts and bounds
//	DELETE /v1/releases/{name}             unregister a release (frees memory, refunds nothing)
//	GET    /v1/releases/{name}/distance    one s-t query (?s=&t=)
//	POST   /v1/releases/{name}/distance    one s-t query ({"s":..,"t":..})
//	POST   /v1/releases/{name}/distances   batch query (text lines or JSON array of pairs)
//	POST   /v1/releases/{name}/distances:stream  pipelined NDJSON: text "s t" lines in, one answer object per line out
//	GET    /v1/releases/{name}/snapshot    download the sealed snapshot artifact (receipt-hash ETag)
//	POST   /v1/releases/{name}:import      register a release from an uploaded snapshot (zero budget)
//	GET    /livez                          liveness: the process is up
//	GET    /readyz                         readiness: all releases materialized and not draining
//	GET    /metrics                        query/cache/latency counters per release
//
// Every error is a JSON envelope {"error": "..."}; unreachable pairs
// use the same null+unreachable convention as the CLI's -json output.
// Request bodies are size-limited, and each release sheds load past its
// max-inflight admission cap with 429 responses.
//
// Privacy posture: queries are free post-processing, but every POST
// /v1/releases spends fresh budget over the same private weights —
// cumulative privacy loss grows with each release, so the registry is
// capped (Config.MaxReleases) and specs asking for seeded
// (deterministic, hence privacy-free) noise are refused unless the
// operator opted in with Config.AllowSeeded.
package serve

import (
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync/atomic"
	"time"

	"repro/dpgraph"
)

// Config carries the server-wide serving limits.
type Config struct {
	// MaxBodyBytes bounds any request body; <= 0 takes
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxInflight is the default per-release admission cap (concurrent
	// in-flight requests per release); a release spec may override it,
	// and 0 means unlimited.
	MaxInflight int
	// MaxReleases caps the registry size (each release retains its
	// oracle and any index forever, and each create spends fresh
	// budget over the same private weights, so the cap also bounds
	// cumulative privacy loss and memory); <= 0 takes
	// DefaultMaxReleases. Deleting a release frees its slot but never
	// refunds budget already spent.
	MaxReleases int
	// AllowSeeded permits specs carrying a nonzero Seed. Deterministic
	// noise is reproducible by anyone who knows the seed and therefore
	// offers NO privacy; leave this false outside tests and demos.
	AllowSeeded bool
	// SigningKey, when set, signs every snapshot the server exports so
	// replicas can verify provenance.
	SigningKey ed25519.PrivateKey
	// VerifyKey, when set, requires every imported or boot-restored
	// snapshot to carry a signature verifying against it.
	VerifyKey ed25519.PublicKey
}

// DefaultMaxBodyBytes bounds request bodies when Config leaves
// MaxBodyBytes unset: enough for a ~1M-pair JSON batch, small enough
// that a hostile client cannot buffer unbounded memory per request.
const DefaultMaxBodyBytes = 32 << 20

// DefaultMaxReleases bounds the registry when Config leaves
// MaxReleases unset.
const DefaultMaxReleases = 64

// Server answers distance queries over a registry of materialized
// releases, all sharing one public topology and private weight vector.
// Each release runs in its own independently budgeted session. Safe for
// concurrent use; construct with New.
type Server struct {
	g       *dpgraph.Graph
	private []float64
	cfg     Config
	reg     registry
	started time.Time
	// draining flips readiness off and sheds new work during graceful
	// shutdown: load balancers watching /readyz stop sending before the
	// listener closes, and requests that race the drain get an explicit
	// 503 + Retry-After instead of a mid-request connection reset.
	draining atomic.Bool
}

// New returns a server holding the public topology and the private
// weights from which POST /v1/releases materializes releases.
func New(topology *dpgraph.Graph, private []float64, cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxReleases <= 0 {
		cfg.MaxReleases = DefaultMaxReleases
	}
	return &Server{g: topology, private: private, cfg: cfg, started: time.Now()}
}

// Handler returns the server's HTTP routing table. While the server is
// draining, every endpoint except the health/metrics probes answers
// 503 + Retry-After so a request racing the shutdown gets a clean,
// retryable refusal instead of a connection reset when the listener
// closes moments later.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/releases", s.handleList)
	mux.HandleFunc("POST /v1/releases", s.handleCreate)
	mux.HandleFunc("DELETE /v1/releases/{name}", s.handleDelete)
	// The import spelling /v1/releases/{name}:import lands here with
	// the wildcard capturing "name:import" (a colon cannot appear in a
	// release name); the handler splits the verb back off.
	mux.HandleFunc("POST /v1/releases/{name}", s.handleImport)
	mux.HandleFunc("GET /v1/releases/{name}/snapshot", s.handleSnapshotGet)
	mux.HandleFunc("GET /v1/releases/{name}/distance", s.handleDistance)
	mux.HandleFunc("POST /v1/releases/{name}/distance", s.handleDistance)
	mux.HandleFunc("POST /v1/releases/{name}/distances", s.handleDistances)
	mux.HandleFunc("POST /v1/releases/{name}/distances:stream", s.handleStream)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			switch r.URL.Path {
			case "/livez", "/readyz", "/metrics":
				// Probes keep answering so load balancers and operators
				// can watch the drain progress.
			default:
				w.Header().Set("Retry-After", "1")
				WriteError(w, http.StatusServiceUnavailable, "server is draining; retry against another replica")
				return
			}
		}
		mux.ServeHTTP(w, r)
	})
}

// errorEnvelope is the JSON shape of every error response.
type errorEnvelope struct {
	Error string `json:"error"`
}

// WriteError answers status with the error envelope every dpgraph
// daemon writes, replica and coordinator alike.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorEnvelope{Error: fmt.Sprintf(format, args...)})
}

// WriteJSON answers status with v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// createRequest is the POST /v1/releases body: a name, an optional
// admission-cap override, and the release spec shared with the CLI.
type createRequest struct {
	Name string `json:"name"`
	// MaxInflight overrides the server's default per-release admission
	// cap; 0 means unlimited, nil takes the default.
	MaxInflight *int `json:"max_inflight,omitempty"`
	dpgraph.ReleaseSpec
}

// releaseName restricts names to URL- and log-safe spellings.
var releaseName = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)

// releaseSummary is the JSON shape of one release in listings and
// creation responses.
type releaseSummary struct {
	Name      string `json:"name"`
	Status    string `json:"status"` // "ready" or "materializing"
	Mechanism string `json:"mechanism"`
	// N is the number of vertices served; valid queries are pairs in
	// [0, N).
	N     int     `json:"n,omitempty"`
	Index string  `json:"index,omitempty"`
	Gamma float64 `json:"gamma"`
	// Bound is the oracle's additive error bound at Gamma.
	Bound       float64         `json:"bound,omitempty"`
	Receipt     dpgraph.Receipt `json:"receipt,omitempty"`
	Created     time.Time       `json:"created"`
	MaxInflight int             `json:"max_inflight,omitempty"`
}

// gammaOf resolves a spec's bound failure probability (0 means the
// session default).
func gammaOf(spec dpgraph.ReleaseSpec) float64 {
	if spec.Gamma > 0 {
		return spec.Gamma
	}
	return dpgraph.DefaultGamma
}

func (s *Server) summarize(rel *release) releaseSummary {
	sum := releaseSummary{
		Name:        rel.name,
		Status:      "materializing",
		Mechanism:   rel.spec.Mechanism,
		Index:       rel.spec.Index,
		Gamma:       gammaOf(rel.spec),
		Created:     rel.created,
		MaxInflight: cap(rel.inflight),
	}
	select {
	case <-rel.ready:
		if rel.err != nil {
			return sum
		}
		sum.Status = "ready"
		sum.N = rel.oracle.N()
		sum.Bound = rel.oracle.Bound(sum.Gamma)
		sum.Receipt = rel.result.Info().Receipt
	default:
	}
	return sum
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req createRequest
	if err := dec.Decode(&req); err != nil {
		WriteBodyError(w, err)
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		WriteError(w, http.StatusBadRequest, "bad release spec: trailing content after the JSON object")
		return
	}
	if !releaseName.MatchString(req.Name) {
		WriteError(w, http.StatusBadRequest, "bad release name %q: want 1-128 characters of [A-Za-z0-9._-]", req.Name)
		return
	}
	if req.Seed != 0 && !s.cfg.AllowSeeded {
		// A client who knows the seed can regenerate the noise draws and
		// subtract them from the answers, recovering the private weights.
		WriteError(w, http.StatusForbidden, "seeded (deterministic) noise offers no privacy and is refused; start the server with -allow-seeded for tests and demos")
		return
	}
	maxInflight := s.cfg.MaxInflight
	if req.MaxInflight != nil {
		if *req.MaxInflight < 0 {
			WriteError(w, http.StatusBadRequest, "max_inflight must be >= 0, got %d", *req.MaxInflight)
			return
		}
		maxInflight = *req.MaxInflight
	}
	rel, err := s.reg.reserve(req.Name, req.ReleaseSpec, maxInflight, s.cfg.MaxReleases)
	if errors.Is(err, errTooManyReleases) {
		WriteError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	if err != nil {
		WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	// Materialize outside the registry lock: the one budget-charging
	// step, potentially including an index build. Concurrent creates of
	// different releases proceed in parallel; a duplicate name conflicts
	// on the reservation above instead of double-spending.
	oracle, result, err := rel.spec.Materialize(s.g, dpgraph.PrivateWeights(s.private))
	if err != nil {
		rel.err = err
		close(rel.ready)
		s.reg.remove(rel)
		WriteError(w, http.StatusBadRequest, "materializing %q: %v", rel.name, err)
		return
	}
	s.publish(rel, oracle, result)
	WriteJSON(w, http.StatusCreated, s.summarize(rel))
}

// publish makes a reserved release servable: it sets the oracle and
// closes ready. The single publication path for created, imported, and
// boot-restored releases.
func (s *Server) publish(rel *release, oracle dpgraph.DistanceOracle, result dpgraph.Result) {
	rel.oracle, rel.result = oracle, result
	close(rel.ready)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	rels := s.reg.list()
	out := struct {
		Releases []releaseSummary `json:"releases"`
	}{Releases: make([]releaseSummary, 0, len(rels))}
	for _, rel := range rels {
		out.Releases = append(out.Releases, s.summarize(rel))
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleDelete unregisters a release, freeing its oracle and admission
// state. Budget the release already spent is spent forever — deletion
// is memory management, not a privacy refund.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rel, ok := s.reg.lookup(name)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown release %q", name)
		return
	}
	select {
	case <-rel.ready:
	default:
		// The creator will still publish into this entry; make the
		// client wait for that instead of racing it.
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusConflict, "release %q is still materializing", name)
		return
	}
	s.reg.remove(rel)
	WriteJSON(w, http.StatusOK, struct {
		Deleted string `json:"deleted"`
	}{Deleted: name})
}

// resolve returns the named, ready release for a query handler,
// writing the 404 itself when the request cannot proceed: the name is
// unknown, its release failed, or it is still a materializing
// placeholder. A placeholder is not a release yet, so a query racing a
// create or :import sees exactly what it would see before the create
// began or after a DELETE — never a 5xx. Admission is
// separate (admitOrShed) so handlers parse their input before taking a
// slot — a slow-trickled request body must not hold serving capacity.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (*release, bool) {
	name := r.PathValue("name")
	rel, ok := s.reg.lookup(name)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown release %q", name)
		return nil, false
	}
	select {
	case <-rel.ready:
	default:
		WriteError(w, http.StatusNotFound, "release %q is not ready yet (still materializing)", name)
		return nil, false
	}
	if rel.err != nil {
		WriteError(w, http.StatusNotFound, "release %q failed to materialize: %v", name, rel.err)
		return nil, false
	}
	return rel, true
}

// admitOrShed claims an admission slot, answering 429 when the release
// is at its cap. On true the caller owns one slot and must call
// rel.done().
func (s *Server) admitOrShed(w http.ResponseWriter, rel *release) bool {
	if rel.admit() {
		return true
	}
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusTooManyRequests, "release %q is at its admission cap (%d in flight)", rel.name, cap(rel.inflight))
	return false
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) {
	rel, ok := s.resolve(w, r)
	if !ok {
		return
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	var p dpgraph.VertexPair
	var err error
	if r.Method == http.MethodGet {
		p, err = parseQueryPair(r.URL.RawQuery)
	} else {
		ws.body, err = ReadBodyLimit(ws.body[:0], r.Body, s.cfg.MaxBodyBytes)
		if err == nil {
			p, err = parsePointBody(ws.body)
		}
	}
	if err != nil {
		rel.metrics.errors.Add(1)
		WriteBodyError(w, err)
		return
	}
	if !s.admitOrShed(w, rel) {
		return
	}
	defer rel.done()
	start := time.Now()
	d, err := rel.oracle.Distance(p.S, p.T)
	if err != nil {
		rel.metrics.errors.Add(1)
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rel.metrics.observe(1, time.Since(start))
	ws.buf = appendPairAnswer(ws.buf[:0], p.S, p.T, d)
	setContentTypeJSON(w.Header())
	w.WriteHeader(http.StatusOK)
	w.Write(ws.buf) //nolint:errcheck // the response is already committed
}

// batchEnvelope mirrors the CLI query subcommand's -json envelope: one
// receipt for the release, then every answered pair.
type batchEnvelope struct {
	Mechanism string          `json:"mechanism"`
	Count     int             `json:"count"`
	Bound     float64         `json:"bound"`
	Gamma     float64         `json:"gamma"`
	Receipt   dpgraph.Receipt `json:"receipt"`
	Results   []PairAnswer    `json:"results"`
}

func (s *Server) handleDistances(w http.ResponseWriter, r *http.Request) {
	rel, ok := s.resolve(w, r)
	if !ok {
		return
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	// Read and parse before admission: a client trickling a large body
	// holds no serving slot while doing so.
	var err error
	ws.body, err = ReadBodyLimit(ws.body[:0], r.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		rel.metrics.errors.Add(1)
		WriteBodyError(w, err)
		return
	}
	ws.pairs, err = parsePairs(ws.pairs[:0], ws.body)
	pairs := ws.pairs
	if err == nil && len(pairs) == 0 {
		err = ErrNoPairs
	}
	if err != nil {
		rel.metrics.errors.Add(1)
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.admitOrShed(w, rel) {
		return
	}
	defer rel.done()
	start := time.Now()
	if cap(ws.vals) < len(pairs) {
		ws.vals = make([]float64, len(pairs))
	}
	values := ws.vals[:len(pairs)]
	if err = rel.oracle.DistancesInto(pairs, values); err != nil {
		rel.metrics.errors.Add(1)
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rel.metrics.observe(len(pairs), time.Since(start))
	head, mid := rel.envelopeChunks()
	buf := append(ws.buf[:0], head...)
	buf = strconv.AppendInt(buf, int64(len(pairs)), 10)
	buf = append(buf, mid...)
	for i, p := range pairs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendPairAnswer(buf, p.S, p.T, values[i])
	}
	buf = append(buf, ']', '}')
	ws.buf = buf
	setContentTypeJSON(w.Header())
	w.WriteHeader(http.StatusOK)
	w.Write(buf) //nolint:errcheck // the response is already committed
}

// handleLivez is pure process liveness: it answers ok as long as the
// process can serve HTTP at all, draining or not. Orchestrators restart
// on livez failures, so it must never flip during a graceful shutdown.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "alive"})
}

// readyzResponse is the /readyz body. Releases names every ready
// release so a coordinator probing readiness also learns the replica's
// serving set from the same request.
type readyzResponse struct {
	Status string `json:"status"` // "ready", "draining", or "materializing"
	// Releases lists the ready (queryable) releases.
	Releases []string `json:"releases"`
	// Materializing lists releases still building; non-empty only on a
	// 503 "materializing" answer.
	Materializing []string `json:"materializing,omitempty"`
}

// handleReadyz is the routing-readiness probe: 200 exactly when every
// registered release is materialized and the server is not draining.
// Draining flips it to 503 before the listener closes, so health-probed
// load balancers stop sending ahead of the actual shutdown; a replica
// mid-materialization likewise reports not-ready so coordinators do not
// route queries it would answer with 503s.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyzResponse{Status: "ready", Releases: []string{}}
	for _, rel := range s.reg.list() {
		select {
		case <-rel.ready:
			if rel.err == nil {
				resp.Releases = append(resp.Releases, rel.name)
			}
		default:
			resp.Materializing = append(resp.Materializing, rel.name)
		}
	}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	case len(resp.Materializing) > 0:
		resp.Status = "materializing"
		status = http.StatusServiceUnavailable
	}
	if status != http.StatusOK {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, resp)
}

// StartDrain begins a graceful shutdown: /readyz flips to 503 and new
// requests are refused with 503 + Retry-After while in-flight ones run
// to completion. Callers should keep the listener open for a grace
// period afterwards so probes observe the flip, then shut the HTTP
// server down.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// metricsTotals sums the countable columns across releases; latency
// quantiles do not sum and stay per-release.
type metricsTotals struct {
	Requests    uint64 `json:"requests"`
	Queries     uint64 `json:"queries"`
	Errors      uint64 `json:"errors"`
	Rejected429 uint64 `json:"rejected_429"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := struct {
		UptimeSeconds float64       `json:"uptime_seconds"`
		Totals        metricsTotals `json:"totals"`
		// BufferPool tracks the shared request-workspace pool: gets are
		// checkouts, news are checkouts the pool could not serve from
		// cache (each news is one workspace allocation).
		BufferPool struct {
			Gets uint64 `json:"gets"`
			News uint64 `json:"news"`
		} `json:"buffer_pool"`
		Releases map[string]metricsSnapshot `json:"releases"`
	}{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Releases:      map[string]metricsSnapshot{},
	}
	out.BufferPool.Gets, out.BufferPool.News = workspaceCounters()
	for _, rel := range s.reg.list() {
		snap := rel.metrics.snapshot(rel.cacheStats())
		out.Releases[rel.name] = snap
		out.Totals.Requests += snap.Requests
		out.Totals.Queries += snap.Queries
		out.Totals.Errors += snap.Errors
		out.Totals.Rejected429 += snap.Rejected429
		out.Totals.CacheHits += snap.CacheHits
		out.Totals.CacheMisses += snap.CacheMisses
	}
	WriteJSON(w, http.StatusOK, out)
}

// WriteBodyError maps a request decoding failure onto its status:
// 413 for a body over its limit (an *http.MaxBytesError, from
// ReadBodyLimit or http.MaxBytesReader), 400 otherwise.
func WriteBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		return
	}
	WriteError(w, http.StatusBadRequest, "%v", err)
}
