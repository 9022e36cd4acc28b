package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names recorded at the layer boundaries of the HTTP path.
const (
	spanClient  = "client"          // load generator: send to response read
	spanCluster = "cluster"         // coordinator handler
	spanAttempt = "cluster.attempt" // one coordinator-to-replica attempt
	spanServe   = "serve"           // replica handler
)

// Headers carrying the request id and the parent span across a socket.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs skip tracing.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	phase atomic.Pointer[string]
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.setPhase("")
	return r
}

func (r *recorder) setPhase(p string) { r.phase.Store(&p) }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span under the current phase.
func (r *recorder) add(s span) {
	s.Phase = *r.phase.Load()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes the spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

type spanKey struct{}

// spanCtx is the span a context belongs to.
type spanCtx struct{ req, id uint64 }

// middleware wraps a server handler in a span named name. The parent
// and request id arrive in headers, because the caller sits on the
// other side of a socket; requests without a request id (health
// probes) are not traced.
func (r *recorder) middleware(name string, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rid, err := strconv.ParseUint(req.Header.Get(hdrReq), 10, 64)
		if err != nil {
			next.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseUint(req.Header.Get(hdrSpan), 10, 64)
		s := span{ID: r.newID(), Parent: parent, Req: rid, Name: name, Start: r.now()}
		ctx := context.WithValue(req.Context(), spanKey{}, spanCtx{req: rid, id: s.ID})
		next.ServeHTTP(w, req.WithContext(ctx))
		s.End = r.now()
		r.add(s)
	})
}

// transport is the coordinator's RoundTripper in traced runs: it
// records one span per downstream attempt, parented by the coordinator
// span it finds in the request context, and forwards the ids to the
// replica in headers.
type transport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, ok := req.Context().Value(spanKey{}).(spanCtx)
	if !ok {
		return t.base.RoundTrip(req)
	}
	s := span{ID: t.rec.newID(), Parent: sc.id, Req: sc.req, Name: spanAttempt, Start: t.rec.now()}
	out := req.Clone(req.Context())
	out.Header.Set(hdrReq, strconv.FormatUint(sc.req, 10))
	out.Header.Set(hdrSpan, strconv.FormatUint(s.ID, 10))
	resp, err := t.base.RoundTrip(out)
	s.End = t.rec.now()
	t.rec.add(s)
	return resp, err
}

// layerStats summarises the spans of one phase.
type layerStats struct {
	// selfUS is the median self time per span name: the span's duration
	// minus the part of it its children cover.
	selfUS map[string]float64
	// overheadUS is the median of client span minus the handler span it
	// reached directly: socket, HTTP framing and client work.
	overheadUS float64
	// hopUS is the median of client span minus replica handler span on
	// requests that crossed the coordinator with a single attempt.
	hopUS float64
}

func summarize(spans []span, phase string) *layerStats {
	byID := map[uint64]int{}
	children := map[uint64][]int{}
	for i, s := range spans {
		if s.Phase != phase {
			continue
		}
		byID[s.ID] = i
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	if len(byID) == 0 {
		return nil
	}
	self := map[string][]float64{}
	var overhead, hop []float64
	for _, i := range byID {
		s := spans[i]
		kids := children[s.ID]
		self[s.Name] = append(self[s.Name], float64(s.dur()-covered(spans, kids))/1e3)
		if s.Name != spanClient || len(kids) != 1 {
			continue
		}
		k := spans[kids[0]]
		overhead = append(overhead, float64(s.dur()-k.dur())/1e3)
		if k.Name != spanCluster {
			continue
		}
		if att := children[k.ID]; len(att) == 1 {
			if srv := children[spans[att[0]].ID]; len(srv) == 1 {
				hop = append(hop, float64(s.dur()-spans[srv[0]].dur())/1e3)
			}
		}
	}
	st := &layerStats{selfUS: map[string]float64{}, overheadUS: median(overhead), hopUS: median(hop)}
	for name, xs := range self {
		st.selfUS[name] = median(xs)
	}
	return st
}

// covered is the length of the union of the children's intervals.
func covered(spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(kids))
	for j, k := range kids {
		iv[j] = [2]int64{spans[k].Start, spans[k].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// timed runs fn, a direct call into a library layer, and returns its
// wall time in seconds; a non-nil recorder also keeps it as a span.
func (r *recorder) timed(name string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if r != nil {
		end := r.now()
		r.add(span{ID: r.newID(), Name: name, Start: end - int64(d), End: end})
	}
	return d.Seconds(), err
}
