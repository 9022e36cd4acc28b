package dpgraph

import (
	"fmt"
	"math/rand" //dpvet:allow noiserand -- WithNoiseSource's public signature takes a caller-owned *rand.Rand; sampling stays inside dp.NoiseSource

	"repro/internal/dp"
	"repro/internal/graph/index"
)

// config carries the session settings accumulated by Options.
type config struct {
	epsilon float64
	delta   float64
	gamma   float64
	scale   float64
	budget  dp.PrivacyParams

	indexMode QueryIndexMode

	seeded     bool
	seed       int64
	sharedRand *rand.Rand
}

// DefaultGamma is the failure probability sessions use for error
// bounds when WithGamma is not given; consumers reporting bounds for a
// release whose spec left Gamma unset (the serving layer) evaluate at
// this same value.
const DefaultGamma = 0.05

func defaultConfig() config {
	return config{
		epsilon: 1,
		delta:   0,
		gamma:   DefaultGamma,
		scale:   1,
		budget:  unlimited(),
	}
}

// Option configures a PrivateGraph at construction.
type Option func(*config) error

// WithEpsilon sets the privacy parameter epsilon charged by each
// release. Must be positive. Default 1.
func WithEpsilon(epsilon float64) Option {
	return func(c *config) error {
		if !(epsilon > 0) {
			return fmt.Errorf("dpgraph: epsilon must be positive, got %g", epsilon)
		}
		c.epsilon = epsilon
		return nil
	}
}

// WithDelta sets the approximate-DP parameter delta. Zero (the default)
// means pure DP; mechanisms documented as (eps, delta)-DP use it to
// calibrate noise by advanced composition.
func WithDelta(delta float64) Option {
	return func(c *config) error {
		if delta < 0 || delta >= 1 {
			return fmt.Errorf("dpgraph: delta must be in [0, 1), got %g", delta)
		}
		c.delta = delta
		return nil
	}
}

// WithGamma sets the failure probability used to size high-probability
// error bounds and Algorithm 3's shift. Default 0.05.
func WithGamma(gamma float64) Option {
	return func(c *config) error {
		if !(gamma > 0 && gamma < 1) {
			return fmt.Errorf("dpgraph: gamma must be in (0, 1), got %g", gamma)
		}
		c.gamma = gamma
		return nil
	}
}

// WithScale sets the l1 influence of a single individual on the weight
// vector (the paper's Section 1.2 scaling remark). Default 1.
func WithScale(scale float64) Option {
	return func(c *config) error {
		if !(scale > 0) {
			return fmt.Errorf("dpgraph: scale must be positive, got %g", scale)
		}
		c.scale = scale
		return nil
	}
}

// WithBudget caps the total (epsilon, delta) the session may spend
// across all releases under basic composition. Once a release would
// exceed it, mechanism calls fail with ErrBudgetExhausted and release
// nothing. Without this option the budget is unlimited (every release
// still appears in the receipts ledger).
func WithBudget(epsilon, delta float64) Option {
	return func(c *config) error {
		if epsilon < 0 || delta < 0 {
			return fmt.Errorf("dpgraph: budget must be nonnegative, got (%g, %g)", epsilon, delta)
		}
		c.budget = dp.PrivacyParams{Epsilon: epsilon, Delta: delta}
		return nil
	}
}

// QueryIndexMode selects the query-speedup index a session's
// searching oracles build over materialized releases (see
// WithQueryIndex). Indexing is pure post-processing of the released
// weights: it never touches the private inputs, charges no budget, and
// changes no answer — only how fast the answer is found.
type QueryIndexMode int

const (
	// IndexOff (the default) serves synthetic-graph oracle queries by
	// plain early-exit Dijkstra.
	IndexOff QueryIndexMode = iota
	// IndexAuto builds a contraction hierarchy, falling back to the
	// landmark index when contraction degenerates and to unindexed
	// serving on topologies no index family supports (directed graphs).
	IndexAuto
	// IndexCH forces a contraction hierarchy.
	IndexCH
	// IndexALT forces the ALT landmark A* index.
	IndexALT
	// IndexHL forces hub labels computed from the contraction order:
	// every query, point or batched, becomes one linear label merge.
	IndexHL
)

// String returns the CLI spelling of the mode (off, auto, ch, alt, hl).
func (m QueryIndexMode) String() string {
	switch m {
	case IndexOff:
		return "off"
	case IndexAuto:
		return "auto"
	case IndexCH:
		return "ch"
	case IndexALT:
		return "alt"
	case IndexHL:
		return "hl"
	}
	return fmt.Sprintf("QueryIndexMode(%d)", int(m))
}

// indexMode maps the public mode onto the internal engine's.
func (m QueryIndexMode) indexMode() index.Mode {
	switch m {
	case IndexAuto:
		return index.Auto
	case IndexCH:
		return index.CH
	case IndexALT:
		return index.ALT
	case IndexHL:
		return index.HL
	}
	return index.Off
}

// ParseQueryIndexMode maps the CLI spellings (off, auto, ch, alt, hl)
// onto QueryIndexMode.
func ParseQueryIndexMode(s string) (QueryIndexMode, error) {
	switch s {
	case "off":
		return IndexOff, nil
	case "auto":
		return IndexAuto, nil
	case "ch":
		return IndexCH, nil
	case "alt":
		return IndexALT, nil
	case "hl":
		return IndexHL, nil
	}
	return IndexOff, fmt.Errorf("dpgraph: unknown query-index mode %q (want off, auto, ch, alt, or hl)", s)
}

// WithQueryIndex makes the session's searching oracles (the
// synthetic-graph oracles returned by SyntheticGraph.Oracle) build a
// precomputed speedup index over the released weights, once per
// release, instead of running a full Dijkstra per query. Lookup-backed
// oracles (tree, hierarchy, table) are O(1)-ish already and ignore the
// mode. Indexed oracles additionally share a lock-free s-t result
// cache, so repeated pairs are answered without any search at all.
//
// IndexCH, IndexALT, and IndexHL require an undirected topology
// (rejected at New otherwise); IndexAuto serves directed topologies
// unindexed. IndexAuto upgrades to hub labels automatically when the
// label build fits its memory guard, so IndexHL is only needed to force
// labels past the guard. Default IndexOff.
func WithQueryIndex(mode QueryIndexMode) Option {
	return func(c *config) error {
		switch mode {
		case IndexOff, IndexAuto, IndexCH, IndexALT, IndexHL:
		default:
			return fmt.Errorf("dpgraph: invalid query-index mode %d", int(mode))
		}
		c.indexMode = mode
		return nil
	}
}

// WithNoiseSource supplies an explicit noise stream, e.g. an
// experiment's shared seeded *rand.Rand. The session serializes all
// sampling from it (and never parallelizes fills), so concurrent queries
// remain safe but releases no longer run in parallel — ConcurrentReleases
// reports false. Prefer WithDeterministicSeed unless the stream must be
// shared with other consumers.
func WithNoiseSource(rng *rand.Rand) Option {
	return func(c *config) error {
		if rng == nil {
			return fmt.Errorf("dpgraph: nil noise source")
		}
		c.sharedRand = rng
		c.seeded = false
		return nil
	}
}

// WithDeterministicSeed makes noise reproducible: each mechanism call
// draws from a child stream split off a root stream seeded with seed.
// A sequence of calls on one goroutine reproduces exactly across runs;
// releases run serially (ConcurrentReleases reports false) because draw
// order is part of the contract.
//
// Deterministic noise is predictable by anyone who knows the seed and
// therefore offers NO privacy; it exists for tests, benchmarks, and
// experiments. Production sessions should keep the crypto-grade default.
func WithDeterministicSeed(seed int64) Option {
	return func(c *config) error {
		c.seeded = true
		c.seed = seed
		c.sharedRand = nil
		return nil
	}
}
