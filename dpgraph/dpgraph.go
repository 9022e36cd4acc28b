// Package dpgraph is the public API for answering graph queries with
// differential privacy in the private edge-weight model of Sealfon,
// "Shortest Paths and Distances with Differential Privacy" (PODS 2016):
// the graph topology is public, the edge-weight vector is private, and
// weight vectors at l1 distance at most one are neighboring.
//
// The private data is bound once into a PrivateGraph session:
//
//	pg, err := dpgraph.New(topology, dpgraph.PrivateWeights(w),
//	    dpgraph.WithEpsilon(1), dpgraph.WithBudget(5, 1e-6))
//	res, err := pg.Distance(s, t)
//	fmt.Println(res.Value, res.Bound(0.05), res.Receipt)
//
// Every mechanism of the paper is a method on PrivateGraph returning a
// typed result that carries the released value(s), a Bound(gamma)
// high-probability error bound, and a Receipt recording the privacy cost
// the built-in accountant charged. Once the budget set by WithBudget is
// exhausted, methods refuse to release anything further.
//
// # Release once, query many
//
// Because differential privacy is closed under post-processing, a
// release pays its privacy cost exactly once; everything computed from
// it afterwards is free. The distance-releasing results therefore carry
// an Oracle() accessor returning a DistanceOracle: construct the release
// (one receipt), then answer unboundedly many s-t queries from the
// oracle with zero further budget, from as many goroutines as desired.
//
//	syn, err := pg.Release()        // charges (epsilon, 0) once
//	oracle := syn.Oracle()          // free post-processing forever after
//	d, err := oracle.Distance(s, t) // no budget, no receipt
//
// Which oracle to use, and what its answers mean:
//
//   - SyntheticGraph.Oracle (Release): exact shortest paths of the noisy
//     graph; vs the true weights a k-hop answer errs by at most k times
//     the per-edge noise bound. Works on any topology. With
//     WithQueryIndex the oracle serves from a precomputed contraction
//     hierarchy or landmark index plus a lock-free result cache — built
//     once per release, identical answers, orders of magnitude faster
//     on large graphs (pure post-processing: zero extra budget).
//   - TreeSSSPResult.Oracle / TreeAPSDResult.Oracle (TreeSingleSource,
//     TreeAllPairs): bounded error polylog(V)/eps on trees; O(log V)
//     LCA lookup per query, no allocation.
//   - HierarchyResult.Oracle (PathHierarchy): bounded error on the path
//     graph; O(log V) released gaps summed per query, no allocation.
//   - APSDResult.Oracle (AllPairsDistances, CoveringAllPairs,
//     BoundedAllPairs): table lookup; composition releases carry the
//     per-query noise bound, covering releases additionally the
//     2·K·MaxWeight assignment bias.
//
// # Noise and throughput
//
// Noise is crypto-grade by default; deterministic runs (tests,
// experiments) must opt in via WithDeterministicSeed or WithNoiseSource.
// A PrivateGraph is safe for concurrent use by multiple goroutines.
//
// All sampling flows through the internal NoiseSource layer, which
// serves noise in vectorized blocks: crypto-noise sessions draw from a
// ChaCha8 stream seeded per call from OS entropy, so million-edge
// releases run at memory speed. Crypto sessions run whole mechanism
// calls in parallel (ConcurrentReleases reports true) — use ReleaseAll to
// materialize a batch of releases concurrently against the shared
// budget accountant. Seeded sessions keep a deterministic draw order
// and therefore run serially.
//
// The available mechanisms, with sensitivity and guarantee metadata, are
// enumerated by Mechanisms().
package dpgraph

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/graph"
)

// ErrBudgetExhausted is reported (wrapped) by any mechanism call that
// would exceed the session budget; match it with errors.Is.
var ErrBudgetExhausted = dp.ErrBudgetExceeded

// Weights wraps a private edge-weight vector. The only way to hand
// private data to this package is through PrivateWeights, which makes
// the trust boundary explicit at the call site.
type Weights struct {
	w []float64
}

// PrivateWeights declares w (indexed by edge ID) to be the private
// input. The slice is copied; later mutation of w does not affect the
// session.
func PrivateWeights(w []float64) Weights {
	return Weights{w: append([]float64(nil), w...)}
}

// PrivateGraph is a session binding a public topology to a private
// weight vector. All mechanism methods draw noise from the session's
// noise source, charge the session's accountant, and append to the
// session's receipt ledger. Safe for concurrent use.
type PrivateGraph struct {
	g   *graph.Graph
	w   []float64
	cfg config

	acct *dp.Accountant

	// noise is the session's root noise source; each mechanism call
	// draws from noise.Child(). Crypto roots hand out fresh independent
	// entropy streams (zero shared state, so mechanism calls and
	// ReleaseAll batches run fully in parallel); seeded roots split a
	// reproducible child per call; caller-supplied shared streams
	// serialize draws internally.
	noise dp.NoiseSource

	recMu    sync.Mutex
	receipts []Receipt
}

// New creates a session for answering private queries about the weights
// on the given public topology. The weight vector length must equal the
// number of edges. Options default to epsilon 1, delta 0, gamma 0.05,
// scale 1, an unlimited budget, and crypto-grade noise.
func New(topology *Graph, private Weights, opts ...Option) (*PrivateGraph, error) {
	if topology == nil {
		return nil, errors.New("dpgraph: nil topology")
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if len(private.w) != topology.M() {
		return nil, fmt.Errorf("dpgraph: weight vector has %d entries for %d edges", len(private.w), topology.M())
	}
	// Fail fast on bad parameters rather than at the first query.
	if err := (core.Options{Epsilon: cfg.epsilon, Delta: cfg.delta, Gamma: cfg.gamma, Scale: cfg.scale}).Validate(); err != nil {
		return nil, err
	}
	// Explicit index families need an undirected topology; catch the
	// mismatch here instead of at the first Oracle call.
	if (cfg.indexMode == IndexCH || cfg.indexMode == IndexALT || cfg.indexMode == IndexHL) && topology.Directed() {
		return nil, fmt.Errorf("dpgraph: WithQueryIndex(%v) supports undirected topologies only (use %v, which serves directed graphs unindexed)", cfg.indexMode, IndexAuto)
	}
	pg := &PrivateGraph{
		g:    topology,
		w:    private.w,
		cfg:  cfg,
		acct: dp.NewAccountant(cfg.budget),
	}
	switch {
	case cfg.sharedRand != nil:
		pg.noise = dp.WrapRand(cfg.sharedRand)
	case cfg.seeded:
		pg.noise = dp.NewSeededNoise(cfg.seed)
	default:
		pg.noise = dp.NewCryptoNoise()
	}
	return pg, nil
}

// Topology returns the session's public graph.
func (pg *PrivateGraph) Topology() *Graph { return pg.g }

// Epsilon returns the per-release privacy parameter.
func (pg *PrivateGraph) Epsilon() float64 { return pg.cfg.epsilon }

// Delta returns the per-release approximate-DP parameter.
func (pg *PrivateGraph) Delta() float64 { return pg.cfg.delta }

// Gamma returns the failure probability used for default error bounds.
func (pg *PrivateGraph) Gamma() float64 { return pg.cfg.gamma }

// Spent returns the total privacy budget charged so far.
func (pg *PrivateGraph) Spent() (epsilon, delta float64) {
	p := pg.acct.Spent()
	return p.Epsilon, p.Delta
}

// Remaining returns the unspent budget; both are +Inf when no budget was
// set.
func (pg *PrivateGraph) Remaining() (epsilon, delta float64) {
	p := pg.acct.Remaining()
	return p.Epsilon, p.Delta
}

// Receipts returns a copy of the ledger of successful releases, in
// order. The sum of the receipts' Epsilon/Delta equals Spent().
func (pg *PrivateGraph) Receipts() []Receipt {
	pg.recMu.Lock()
	defer pg.recMu.Unlock()
	return append([]Receipt(nil), pg.receipts...)
}

// options assembles the core options for one mechanism call. The call's
// noise stream is a child of the session root:
//   - crypto (default): a fresh OS-entropy stream per call with no
//     shared state, so any number of mechanism calls sample in parallel;
//   - deterministic (WithDeterministicSeed): a child stream split from
//     the seeded root, so a serial sequence of calls reproduces exactly;
//   - shared (WithNoiseSource): the caller's stream, which serializes
//     its draws internally.
func (pg *PrivateGraph) options() core.Options {
	return core.Options{
		Epsilon:    pg.cfg.epsilon,
		Delta:      pg.cfg.delta,
		Gamma:      pg.cfg.gamma,
		Scale:      pg.cfg.scale,
		Noise:      pg.noise.Child(),
		Accountant: pg.acct,
	}
}

// ConcurrentReleases reports whether the session's mechanism calls may
// run fully in parallel: true for crypto-noise sessions (every call gets
// an independent entropy stream, and only the accountant and receipt
// ledger are shared, each behind its own short mutex), false for
// deterministic and shared-stream sessions, whose draw order is part of
// the reproducibility contract. ReleaseAll consults this to decide
// between parallel and serial materialization.
func (pg *PrivateGraph) ConcurrentReleases() bool {
	return !pg.noise.Deterministic()
}

// exec runs one mechanism body with session options and, on success,
// records a receipt for the charged cost. Pure mechanisms charge no
// delta regardless of the session delta.
func (pg *PrivateGraph) exec(mechanism string, pure bool, run func(o core.Options) error) (Receipt, error) {
	if err := run(pg.options()); err != nil {
		return Receipt{}, err
	}
	rec := Receipt{
		Mechanism: mechanism,
		Epsilon:   pg.cfg.epsilon,
		Delta:     pg.cfg.delta,
		Time:      time.Now(),
	}
	if pure {
		rec.Delta = 0
	}
	pg.recMu.Lock()
	pg.receipts = append(pg.receipts, rec)
	pg.recMu.Unlock()
	return rec, nil
}

// info builds the common release metadata for a result.
func (pg *PrivateGraph) info(rec Receipt, noiseScale float64) ReleaseInfo {
	return ReleaseInfo{
		Mechanism:  rec.Mechanism,
		Epsilon:    rec.Epsilon,
		Delta:      rec.Delta,
		NoiseScale: noiseScale,
		Receipt:    rec,
	}
}

// unlimited is the budget used when WithBudget is not given.
func unlimited() dp.PrivacyParams {
	return dp.PrivacyParams{Epsilon: math.Inf(1), Delta: math.Inf(1)}
}
