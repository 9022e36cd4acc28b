package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/dpgraph"
)

// release is one named, independently budgeted materialized release:
// its oracle, the result carrying the receipt, and the per-release
// serving state (admission slots, metrics). A release is registered
// before materialization finishes so concurrent creates of the same
// name conflict instead of double-spending; ready is closed once the
// oracle is usable.
type release struct {
	name    string
	spec    dpgraph.ReleaseSpec
	created time.Time

	ready chan struct{}
	// err is the materialization failure, set before ready is closed;
	// a failed release is removed from the registry by its creator.
	err    error
	oracle dpgraph.DistanceOracle
	result dpgraph.Result

	// into is the allocation-free batch entry: the oracle's own
	// DistancesInto when it implements dpgraph.BatchOracle, an
	// allocating adapter otherwise. Set by Server.publish; nil only for
	// releases wired up directly in tests, which batchInto tolerates.
	into func(pairs []dpgraph.VertexPair, out []float64) error

	// envOnce guards the lazily built batch-envelope chunks: the
	// constant JSON prefix up to "count": and the constant middle from
	// there through `"results":[`. Everything per-request is appended
	// between and after them.
	envOnce sync.Once
	envHead []byte
	envMid  []byte

	// inflight holds one token per admitted in-flight request; nil
	// means unlimited.
	inflight chan struct{}

	metrics releaseMetrics
}

// batchInto answers pairs into out through the fastest batch entry the
// release has.
func (rel *release) batchInto(pairs []dpgraph.VertexPair, out []float64) error {
	if rel.into != nil {
		return rel.into(pairs, out)
	}
	vals, err := rel.oracle.Distances(pairs)
	if err != nil {
		return err
	}
	copy(out, vals)
	return nil
}

// inRange reports whether both endpoints are valid vertices. The
// stream handler checks each line with it so an invalid pair fails at
// its own line number instead of failing the whole mini-batch it would
// have joined.
func (rel *release) inRange(s, t int) bool {
	n := rel.oracle.N()
	return s >= 0 && s < n && t >= 0 && t < n
}

// envelopeChunks returns the constant prefix/middle of the compact
// batch envelope. Mechanism, bound, gamma, and receipt are fixed once
// the release materializes, so they are rendered exactly once.
func (rel *release) envelopeChunks() (head, mid []byte) {
	rel.envOnce.Do(func() {
		gamma := gammaOf(rel.spec)
		mech, err := json.Marshal(rel.spec.Mechanism)
		if err != nil {
			mech = []byte(`""`)
		}
		receipt := []byte("null")
		if rel.result != nil {
			if enc, err := json.Marshal(rel.result.Info().Receipt); err == nil {
				receipt = enc
			}
		}
		head = append(head, `{"mechanism":`...)
		head = append(head, mech...)
		head = append(head, `,"count":`...)
		mid = append(mid, `,"bound":`...)
		if b := rel.oracle.Bound(gamma); math.IsInf(b, 0) || math.IsNaN(b) {
			mid = append(mid, `null`...)
		} else {
			mid = appendJSONFloat(mid, b)
		}
		mid = append(mid, `,"gamma":`...)
		mid = appendJSONFloat(mid, gamma)
		mid = append(mid, `,"receipt":`...)
		mid = append(mid, receipt...)
		mid = append(mid, `,"results":[`...)
		rel.envHead, rel.envMid = head, mid
	})
	return rel.envHead, rel.envMid
}

// admit claims an in-flight slot, reporting false when the release is
// at its admission cap.
func (rel *release) admit() bool {
	if rel.inflight == nil {
		return true
	}
	select {
	case rel.inflight <- struct{}{}:
		return true
	default:
		rel.metrics.rejected.Add(1)
		return false
	}
}

// done releases an admitted slot.
func (rel *release) done() {
	if rel.inflight != nil {
		<-rel.inflight
	}
}

// cacheStats reports the oracle's result-cache counters when the
// serving path has one (indexed synthetic oracles). Only point queries
// consult the cache, so batch and stream pairs count in neither.
// Reading rel.oracle is only safe after ready closes (handleCreate
// publishes it through that close); a still-materializing release
// reports zeros.
func (rel *release) cacheStats() (hits, misses uint64) {
	select {
	case <-rel.ready:
	default:
		return 0, 0
	}
	if o, ok := rel.oracle.(interface {
		CacheStats() (hits, misses uint64, ok bool)
	}); ok {
		if h, m, have := o.CacheStats(); have {
			return h, m
		}
	}
	return 0, 0
}

// registry is the mutex-guarded name -> release table. Queries only
// take the lock for the lookup; answering happens outside it.
type registry struct {
	mu sync.Mutex
	m  map[string]*release
}

// errTooManyReleases marks a reserve refused by the registry size cap
// (mapped to 429 by handleCreate, unlike a name conflict's 409).
var errTooManyReleases = errors.New("registry is full")

// reserve registers a materializing placeholder under name, failing
// when the name is taken or the registry holds maxReleases entries
// already (each entry retains an oracle and spent budget forever, so
// the cap bounds both memory and cumulative privacy loss).
func (r *registry) reserve(name string, spec dpgraph.ReleaseSpec, maxInflight, maxReleases int) (*release, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]*release)
	}
	if _, ok := r.m[name]; ok {
		return nil, fmt.Errorf("release %q already exists", name)
	}
	if maxReleases > 0 && len(r.m) >= maxReleases {
		return nil, fmt.Errorf("%w: %d releases held (cap %d); DELETE unused releases to free slots (spent budget is not refunded)", errTooManyReleases, len(r.m), maxReleases)
	}
	rel := &release{
		name:    name,
		spec:    spec,
		created: time.Now(),
		ready:   make(chan struct{}),
	}
	if maxInflight > 0 {
		rel.inflight = make(chan struct{}, maxInflight)
	}
	r.m[name] = rel
	return rel, nil
}

// remove drops exactly rel from the table. Matching by identity, not
// just name, keeps a stalled deleter (or a failed create's cleanup)
// from deleting a newer release that reused the name in the meantime.
func (r *registry) remove(rel *release) {
	r.mu.Lock()
	if r.m[rel.name] == rel {
		delete(r.m, rel.name)
	}
	r.mu.Unlock()
}

// lookup returns the release registered under name.
func (r *registry) lookup(name string) (*release, bool) {
	r.mu.Lock()
	rel, ok := r.m[name]
	r.mu.Unlock()
	return rel, ok
}

// list returns all registered releases sorted by name.
func (r *registry) list() []*release {
	r.mu.Lock()
	out := make([]*release, 0, len(r.m))
	for _, rel := range r.m {
		out = append(out, rel)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
