package dpgraph

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Guarantee classifies a mechanism's privacy guarantee.
type Guarantee string

const (
	// Pure marks mechanisms that are eps-DP and never consume delta.
	Pure Guarantee = "pure eps-DP"
	// PureOrApprox marks mechanisms that are eps-DP when the session
	// delta is zero and (eps, delta)-DP (via advanced composition)
	// otherwise.
	PureOrApprox Guarantee = "eps-DP, or (eps, delta)-DP when delta > 0"
)

// Args carries the query parameters a registry runner may need; which
// fields a mechanism reads is declared by its descriptor's Args and
// Needs fields.
type Args struct {
	// S and T are the query endpoints for pairwise mechanisms.
	S, T int
	// Root is the source vertex for single-source mechanisms.
	Root int
	// Base is the hub spacing ratio for the path hierarchy (default 2).
	Base int
	// MaxWeight is the public weight cap for bounded-weight mechanisms.
	MaxWeight float64
}

// Descriptor describes one registered mechanism: enough metadata for a
// caller (CLI, service, documentation generator) to enumerate, explain,
// and invoke every mechanism without a hand-rolled switch.
type Descriptor struct {
	// Name is the registry key and CLI subcommand.
	Name string
	// Method is the PrivateGraph method implementing the mechanism.
	Method string
	// Summary is a one-line description.
	Summary string
	// Ref cites the paper result the mechanism implements.
	Ref string
	// Sensitivity describes the query's global l1 sensitivity.
	Sensitivity string
	// Guarantee classifies the privacy guarantee.
	Guarantee Guarantee
	// Args names the positional arguments the runner expects, in order.
	// Recognized names: "s", "t", "root".
	Args []string
	// NeedsMaxWeight marks mechanisms requiring Args.MaxWeight > 0.
	NeedsMaxWeight bool
	// NeedsTree marks mechanisms defined only on tree topologies.
	NeedsTree bool
	// NeedsPath marks mechanisms defined only on the path graph.
	NeedsPath bool

	// Run invokes the mechanism on a session. It is nil for mechanisms
	// whose inputs cannot be conveyed through Args (e.g. an explicit
	// covering); call the method directly instead.
	Run func(pg *PrivateGraph, q Args) (Result, error)

	// Oracle materializes the mechanism's release once — the only
	// budget-charging step — and returns its DistanceOracle together
	// with the release result carrying the receipt. It is nil for
	// mechanisms that release no distance structure (paths, MST,
	// matchings) or whose inputs cannot be conveyed through Args.
	Oracle func(pg *PrivateGraph, q Args) (DistanceOracle, Result, error)
	// OracleArgs names the positional arguments the Oracle runner
	// expects, in order (subset of the names Args recognizes).
	OracleArgs []string
}

// registry is the authoritative mechanism list; keep it sorted by Name.
var registry = []Descriptor{
	{
		Name:        "apsd",
		Method:      "AllPairsDistances",
		Summary:     "all-pairs distances by per-pair composition; with -maxweight, the bounded-weight covering mechanism",
		Ref:         "Section 4 baselines; Theorem 4.3 with a weight cap",
		Sensitivity: "Scale per distance query, composed over V(V-1)/2 queries",
		Guarantee:   PureOrApprox,
		Args:        []string{"s", "t"},
		Run:         pairFromOracle(apsdOracle),
		Oracle:      apsdOracle,
	},
	{
		Name:           "bounded",
		Method:         "BoundedAllPairs",
		Summary:        "all-pairs distances for weights bounded by a public cap, via an automatically chosen covering",
		Ref:            "Theorem 4.3 (Algorithm 2 + Lemma 4.4 covering)",
		Sensitivity:    "Scale per covering-pair distance, composed over |Z|(|Z|-1)/2 queries",
		Guarantee:      PureOrApprox,
		Args:           []string{"s", "t"},
		NeedsMaxWeight: true,
		Run:            pairFromOracle(boundedOracle),
		Oracle:         boundedOracle,
	},
	{
		Name:        "covering",
		Method:      "CoveringAllPairs",
		Summary:     "all-pairs distances from an explicit k-covering (programmatic API only: the covering cannot be passed positionally)",
		Ref:         "Algorithm 2; Theorems 4.5 and 4.6",
		Sensitivity: "Scale per covering-pair distance, composed over |Z|(|Z|-1)/2 queries",
		Guarantee:   PureOrApprox,
	},
	{
		Name:        "distance",
		Method:      "Distance",
		Summary:     "one pairwise distance via the Laplace mechanism",
		Ref:         "Section 4 warm-up",
		Sensitivity: "Scale (a single sensitivity-Scale query)",
		Guarantee:   Pure,
		Args:        []string{"s", "t"},
		Run: func(pg *PrivateGraph, q Args) (Result, error) {
			return noNil(pg.Distance(q.S, q.T))
		},
	},
	{
		Name:        "hierarchy",
		Method:      "PathHierarchy",
		Summary:     "hub hierarchy for the path graph; every pairwise distance from O(log V) released gaps",
		Ref:         "Appendix A",
		Sensitivity: "Scale per hub level, Levels levels",
		Guarantee:   Pure,
		Args:        []string{"s", "t"},
		NeedsPath:   true,
		Run:         pairFromOracle(hierarchyOracle),
		Oracle:      hierarchyOracle,
	},
	{
		Name:        "matching",
		Method:      "Matching",
		Summary:     "almost-minimum-weight perfect matching of the noisy graph",
		Ref:         "Theorem B.6",
		Sensitivity: "Scale (identity query on the weight vector)",
		Guarantee:   Pure,
		Run: func(pg *PrivateGraph, q Args) (Result, error) {
			return noNil(pg.Matching())
		},
	},
	{
		Name:        "maxmatching",
		Method:      "MaxMatching",
		Summary:     "almost-maximum-weight perfect matching of the noisy graph",
		Ref:         "Appendix B.2",
		Sensitivity: "Scale (identity query on the weight vector)",
		Guarantee:   Pure,
		Run: func(pg *PrivateGraph, q Args) (Result, error) {
			return noNil(pg.MaxMatching())
		},
	},
	{
		Name:        "mst",
		Method:      "MST",
		Summary:     "almost-minimum spanning tree of the noisy graph",
		Ref:         "Theorem B.3",
		Sensitivity: "Scale (identity query on the weight vector)",
		Guarantee:   Pure,
		Run: func(pg *PrivateGraph, q Args) (Result, error) {
			return noNil(pg.MST())
		},
	},
	{
		Name:        "mstcost",
		Method:      "MSTCost",
		Summary:     "minimum spanning tree cost (a scalar; no dependence on V)",
		Ref:         "Appendix B remark; contrast with [NRS07]",
		Sensitivity: "Scale (the MST cost is a sensitivity-Scale scalar)",
		Guarantee:   Pure,
		Run: func(pg *PrivateGraph, q Args) (Result, error) {
			return noNil(pg.MSTCost())
		},
	},
	{
		Name:        "path",
		Method:      "ShortestPaths",
		Summary:     "short paths between all pairs from one shifted noisy release",
		Ref:         "Algorithm 3; Theorem 5.5",
		Sensitivity: "Scale (identity query on the weight vector)",
		Guarantee:   Pure,
		Args:        []string{"s", "t"},
		Run: func(pg *PrivateGraph, q Args) (Result, error) {
			rel, err := pg.ShortestPaths()
			if err != nil {
				return nil, err
			}
			edges, err := rel.Path(q.S, q.T)
			if err != nil {
				return nil, err
			}
			verts, err := rel.PathVertices(q.S, q.T)
			if err != nil {
				return nil, err
			}
			return &PathQueryResult{
				ReleaseInfo:    rel.ReleaseInfo,
				Source:         q.S,
				Target:         q.T,
				EdgeIDs:        edges,
				Vertices:       verts,
				ReleasedLength: graph.PathWeight(rel.pp.Weights, edges),
				release:        rel,
			}, nil
		},
	},
	{
		Name:        "release",
		Method:      "Release",
		Summary:     "synthetic weight vector; every post-processing is private for free",
		Ref:         "Section 4 (Laplace mechanism on the identity query)",
		Sensitivity: "Scale (identity query on the weight vector)",
		Guarantee:   Pure,
		Run: func(pg *PrivateGraph, q Args) (Result, error) {
			return noNil(pg.Release())
		},
		Oracle: func(pg *PrivateGraph, q Args) (DistanceOracle, Result, error) {
			rel, err := pg.Release()
			if err != nil {
				return nil, nil, err
			}
			return rel.Oracle(), rel, nil
		},
	},
	{
		Name:        "sssp",
		Method:      "SingleSource",
		Summary:     "single-source distances on a general graph by composition",
		Ref:         "remark after Theorem 4.6",
		Sensitivity: "Scale per distance query, composed over V-1 queries",
		Guarantee:   PureOrApprox,
		Args:        []string{"root"},
		Run: func(pg *PrivateGraph, q Args) (Result, error) {
			return noNil(pg.SingleSource(q.Root))
		},
	},
	{
		Name:        "treedist",
		Method:      "TreeAllPairs",
		Summary:     "all-pairs distances on a tree with polylog(V) error",
		Ref:         "Theorem 4.2 (Algorithm 1 + LCA)",
		Sensitivity: "Scale per recursion level, ceil(log2 V) levels",
		Guarantee:   Pure,
		Args:        []string{"s", "t"},
		NeedsTree:   true,
		Run:         pairFromOracle(treedistOracle),
		Oracle:      treedistOracle,
	},
	{
		Name:        "treesssp",
		Method:      "TreeSingleSource",
		Summary:     "single-source distances on a tree with polylog(V) error",
		Ref:         "Algorithm 1; Theorem 4.1",
		Sensitivity: "Scale per recursion level, ceil(log2 V) levels",
		Guarantee:   Pure,
		Args:        []string{"root"},
		NeedsTree:   true,
		Run: func(pg *PrivateGraph, q Args) (Result, error) {
			return noNil(pg.TreeSingleSource(q.Root))
		},
		Oracle: func(pg *PrivateGraph, q Args) (DistanceOracle, Result, error) {
			rel, err := pg.TreeSingleSource(q.Root)
			if err != nil {
				return nil, nil, err
			}
			return rel.Oracle(), rel, nil
		},
		OracleArgs: []string{"root"},
	},
}

// Mechanisms returns descriptors for every mechanism, sorted by name.
func Mechanisms() []Descriptor {
	out := make([]Descriptor, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// OracleMechanisms returns the names of the mechanisms offering an
// Oracle runner (the release-once/query-many path), sorted.
func OracleMechanisms() []string {
	var names []string
	for _, d := range Mechanisms() {
		if d.Oracle != nil {
			names = append(names, d.Name)
		}
	}
	return names
}

// Mechanism looks up one descriptor by registry name.
func Mechanism(name string) (Descriptor, bool) {
	for _, d := range registry {
		if d.Name == name {
			return d, true
		}
	}
	return Descriptor{}, false
}

// The Oracle runners of the pairwise mechanisms; each one's Run is
// pairFromOracle of it.

func apsdOracle(pg *PrivateGraph, q Args) (DistanceOracle, Result, error) {
	if q.MaxWeight > 0 {
		return boundedOracle(pg, q)
	}
	rel, err := pg.AllPairsDistances()
	if err != nil {
		return nil, nil, err
	}
	return rel.Oracle(), rel, nil
}

func boundedOracle(pg *PrivateGraph, q Args) (DistanceOracle, Result, error) {
	rel, err := pg.BoundedAllPairs(q.MaxWeight)
	if err != nil {
		return nil, nil, err
	}
	return rel.Oracle(), rel, nil
}

func hierarchyOracle(pg *PrivateGraph, q Args) (DistanceOracle, Result, error) {
	base := q.Base
	if base == 0 {
		base = 2
	}
	rel, err := pg.PathHierarchy(base)
	if err != nil {
		return nil, nil, err
	}
	return rel.Oracle(), rel, nil
}

func treedistOracle(pg *PrivateGraph, q Args) (DistanceOracle, Result, error) {
	rel, err := pg.TreeAllPairs()
	if err != nil {
		return nil, nil, err
	}
	return rel.Oracle(), rel, nil
}

// pairFromOracle derives a pairwise mechanism's Run from its Oracle
// runner: it validates the pair before anything is spent, materializes
// the release (the one budget-charging step) and answers the pair from
// the oracle, with the oracle's per-pair bound.
func pairFromOracle(oracle func(pg *PrivateGraph, q Args) (DistanceOracle, Result, error)) func(pg *PrivateGraph, q Args) (Result, error) {
	return func(pg *PrivateGraph, q Args) (Result, error) {
		if err := checkPair(pg, q); err != nil {
			return nil, err
		}
		o, rel, err := oracle(pg, q)
		if err != nil {
			return nil, err
		}
		d, err := o.Distance(q.S, q.T)
		if err != nil {
			return nil, err
		}
		return pairQuery(rel.Info(), q, d, o.Bound), nil
	}
}

// checkPair validates pairwise query endpoints up front so runners fail
// before spending budget.
func checkPair(pg *PrivateGraph, q Args) error {
	n := pg.g.N()
	if q.S < 0 || q.S >= n || q.T < 0 || q.T >= n {
		return fmt.Errorf("dpgraph: query pair (%d, %d) out of range [0, %d)", q.S, q.T, n)
	}
	return nil
}

// pairQuery wraps one pairwise value from an all-pairs release.
func pairQuery(info ReleaseInfo, q Args, value float64, bound func(float64) float64) *QueryResult {
	return &QueryResult{ReleaseInfo: info, Source: q.S, Target: q.T, Value: value, bound: bound}
}

// noNil converts a typed (*T, error) return into (Result, error) without
// producing a non-nil interface around a nil pointer.
func noNil[T any, P interface {
	*T
	Result
}](res P, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return res, nil
}
