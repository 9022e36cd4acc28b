// Package index builds query-speedup indexes over a frozen (topology,
// weight vector) pair — the materialized synthetic graph of a
// release-once/query-many session. An index is pure post-processing of
// the released weights: it reads nothing but public topology and already
// -released values, so it carries no additional privacy cost, and it
// exists purely to make Distance(s, t) serving fast.
//
// Three index families are provided:
//
//   - CH: a contraction hierarchy (bottom-up node ordering by edge
//     difference, contracted neighbors and level, witness-limited
//     shortcut insertion, bidirectional upward search with
//     stall-on-demand). Queries settle a few hundred vertices on
//     road-like and grid-like graphs regardless of size.
//   - HL: 2-hop hub labels computed from the CH contraction order. A
//     point query scans one label against the other, scattered into a
//     dense hub table — another order of magnitude under the CH search
//     — at the cost of label storage and build time on top of the
//     hierarchy, which is dropped once the labels exist.
//   - ALT: landmark-based A* (triangle-inequality lower bounds from a
//     small set of farthest-point landmarks). Slower than CH but immune
//     to contraction degeneracy on dense or highly non-hierarchical
//     graphs.
//
// Every family answers one pair at a time; a batch is its pairs' point
// queries, so a batched answer is bit for bit the point answer.
//
// Build(Auto) tries CH first, falls back to ALT when contraction
// degenerates (shortcuts arriving too fast over the first half of the
// contraction, or past a guard factor in total), and upgrades the
// hierarchy to hub labels when the label build stays within the
// maxAvgLabel memory guard. Indexes answer the exact same distances as
// Dijkstra over the same weights, up to floating-point summation order;
// equivalence is enforced by the tests in this package.
//
// All indexes are safe for concurrent use: per-query state lives in
// sync.Pool-recycled workspaces (version-stamped search records, or
// HL's hub tables), so steady-state queries allocate nothing and never
// touch shared mutable state.
package index

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// Mode selects the index family.
type Mode int

const (
	// Off builds no index; Build returns (nil, nil).
	Off Mode = iota
	// Auto tries CH and falls back to ALT when contraction degenerates
	// (and to no index at all on topologies no family supports).
	Auto
	// CH forces a contraction hierarchy.
	CH
	// ALT forces the landmark A* index.
	ALT
	// HL forces hub labels on top of a contraction hierarchy.
	HL
)

// String returns the CLI spelling of the mode.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Auto:
		return "auto"
	case CH:
		return "ch"
	case ALT:
		return "alt"
	case HL:
		return "hl"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode maps the CLI spellings (off, auto, ch, alt, hl) onto Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "auto":
		return Auto, nil
	case "ch":
		return CH, nil
	case "alt":
		return ALT, nil
	case "hl":
		return HL, nil
	}
	return Off, fmt.Errorf("index: unknown mode %q (want off, auto, ch, alt, or hl)", s)
}

// Index answers exact s-t distance queries over the weights it was
// built from. Implementations are goroutine-safe and allocation-free
// per query in steady state. Endpoints must be in [0, N): callers
// (the dpgraph oracles) validate before querying.
type Index interface {
	// Distance returns the weighted s-t distance, +Inf when the
	// topology disconnects the pair.
	Distance(s, t int) float64
	// N returns the number of vertices served.
	N() int
	// Kind names the index family actually built ("ch", "alt", or
	// "hl"), which under Auto may differ from the requested mode.
	Kind() string
}

// Options selects what Build constructs.
type Options struct {
	// Mode selects the family; Off (the zero value) builds nothing.
	Mode Mode
}

// Build tuning, fixed for every caller.
const (
	// altLandmarks is the ALT landmark count (clamped to N and to
	// MaxLandmarks).
	altLandmarks = 8
	// witnessSettleLimit caps the vertices one CH witness search may
	// settle. Exhausting it inserts the shortcut, which preserves
	// correctness but is paid for in every label the shortcut feeds.
	// A search already stops once all its shortcut decisions are made,
	// so the cap binds only where witnesses lie far away. Over eight
	// noisy releases of the perfbench city, labels hold 7% fewer
	// entries at 200 than at 48 (14% with the level term), and 300 or
	// 500 find no more (EXPERIMENTS E36).
	witnessSettleLimit = 200
	// edgeDiffWeight and levelWeight weigh the edge difference and the
	// level in the CH priority (chBuilder.priority; swept in E36).
	edgeDiffWeight = 6
	levelWeight    = 2
	// maxShortcutFactor aborts a guarded (Auto) CH construction once
	// more than maxShortcutFactor * M shortcuts exist; Auto then falls
	// back to ALT. An explicit CH request runs unguarded.
	maxShortcutFactor = 4
	// maxShortcutRate aborts a guarded CH construction earlier: after
	// at least rateSample and at most half of the vertices are
	// contracted, once the shortcuts per contracted vertex pass
	// maxShortcutRate * M/N (chBuilder.degenerate has the traces it is
	// set from).
	maxShortcutRate = 1.8
	rateSample      = 64
	// maxAvgLabel aborts a guarded (Auto) hub-label build once the
	// total kept label entries pass maxAvgLabel * N; Auto then serves
	// from the hierarchy alone. An explicit HL request runs unguarded.
	maxAvgLabel = 128
)

// errDegenerate reports that CH contraction tripped the shortcut
// guard (chBuilder.degenerate); Auto catches it and falls back to ALT.
var errDegenerate = errors.New("index: contraction degenerated (shortcut guard exceeded)")

// errLabelsTooBig reports that the hub-label build blew past the
// maxAvgLabel guard; Auto catches it and serves from the hierarchy.
var errLabelsTooBig = errors.New("index: hub labels exceeded the size guard")

// Build constructs the index requested by opt over the released
// weights. It returns (nil, nil) for Mode Off, and under Auto also for
// topologies no family supports (directed graphs — callers then serve
// queries unindexed). Explicitly requesting CH or ALT on a directed
// graph is an error, as is any negative weight (released weight
// vectors are clamped nonnegative before indexing).
func Build(g *graph.Graph, w []float64, opt Options) (Index, error) {
	if opt.Mode == Off {
		return nil, nil
	}
	if len(w) != g.M() {
		return nil, fmt.Errorf("index: weight vector has %d entries for %d edges", len(w), g.M())
	}
	if err := checkSize(g.N(), g.M()); err != nil {
		return nil, err
	}
	if g.Directed() {
		if opt.Mode == Auto {
			return nil, nil
		}
		return nil, fmt.Errorf("index: mode %v supports undirected topologies only", opt.Mode)
	}
	for id, x := range w {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("index: edge %d has weight %g; indexes require nonnegative weights", id, x)
		}
	}
	p := prepare(g, w)
	switch opt.Mode {
	case ALT:
		return buildALT(p), nil
	case CH:
		idx, err := buildCH(p, false)
		if err != nil {
			return nil, err
		}
		return idx, nil
	case HL:
		ch, err := buildCH(p, false)
		if err != nil {
			return nil, err
		}
		return buildHL(ch, 0)
	case Auto:
		return buildAuto(p, maxAvgLabel)
	}
	return nil, fmt.Errorf("index: unknown mode %v", opt.Mode)
}

// buildAuto is the Auto tier ladder: a guarded CH build (ALT when it
// degenerates), upgraded to hub labels unless they average more than
// avgLabel entries per vertex.
func buildAuto(p *prepared, avgLabel int) (Index, error) {
	ch, err := buildCH(p, true)
	if err != nil {
		if !errors.Is(err, errDegenerate) {
			return nil, err
		}
		return buildALT(p), nil
	}
	hl, err := buildHL(ch, avgLabel)
	if err != nil {
		if !errors.Is(err, errLabelsTooBig) {
			return nil, err
		}
		return ch, nil // labels blew the memory guard: the hierarchy still serves
	}
	return hl, nil
}

// prepared is the simplified CSR form both families build from: the
// multigraph collapsed to one min-weight edge per unordered endpoint
// pair, self-loops dropped (they never shorten a nonnegative-weight
// path), plus connected-component labels for O(1) disconnected-pair
// answers.
type prepared struct {
	n    int
	off  []int32   // CSR offsets, len n+1
	to   []int32   // neighbor per half-edge
	wt   []float64 // weight per half-edge
	comp []int32   // component label per vertex
}

// checkSize rejects a graph of n vertices and m edges whose vertex ids
// or half-edge offsets would overflow the int32 arrays every index
// holds. The bound also makes PairCache's packed (s, t) key exact for
// every pair an index answers.
func checkSize(n, m int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("index: %d vertices overflow int32 vertex ids", n)
	}
	if m > math.MaxInt32/2 {
		return fmt.Errorf("index: %d edges overflow int32 half-edge offsets", m)
	}
	return nil
}

// prepare collapses the multigraph into the simplified CSR via one
// sort over the endpoint-normalized edge list.
func prepare(g *graph.Graph, w []float64) *prepared {
	n := g.N()
	type simpleEdge struct {
		u, v int32
		w    float64
	}
	edges := make([]simpleEdge, 0, g.M())
	for _, e := range g.Edges() {
		if e.From == e.To {
			continue
		}
		u, v := int32(e.From), int32(e.To)
		if u > v {
			u, v = v, u
		}
		edges = append(edges, simpleEdge{u, v, w[e.ID]})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		if edges[i].v != edges[j].v {
			return edges[i].v < edges[j].v
		}
		return edges[i].w < edges[j].w
	})
	// Collapse runs of equal endpoints; the sort put the minimum first.
	uniq := edges[:0]
	for i, e := range edges {
		if i > 0 && e.u == uniq[len(uniq)-1].u && e.v == uniq[len(uniq)-1].v {
			continue
		}
		uniq = append(uniq, e)
	}
	p := &prepared{n: n, off: make([]int32, n+1)}
	for _, e := range uniq {
		p.off[e.u+1]++
		p.off[e.v+1]++
	}
	for v := 0; v < n; v++ {
		p.off[v+1] += p.off[v]
	}
	p.to = make([]int32, p.off[n])
	p.wt = make([]float64, p.off[n])
	next := make([]int32, n)
	copy(next, p.off[:n])
	for _, e := range uniq {
		p.to[next[e.u]], p.wt[next[e.u]] = e.v, e.w
		next[e.u]++
		p.to[next[e.v]], p.wt[next[e.v]] = e.u, e.w
		next[e.v]++
	}
	p.comp = components(p)
	return p
}

// m returns the simplified edge count.
func (p *prepared) m() int { return len(p.to) / 2 }

// components labels the connected components of the simplified graph.
func components(p *prepared) []int32 {
	comp := make([]int32, p.n)
	for i := range comp {
		comp[i] = -1
	}
	var label int32
	stack := make([]int32, 0, 64)
	for s := 0; s < p.n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = label
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i := p.off[v]; i < p.off[v+1]; i++ {
				if u := p.to[i]; comp[u] == -1 {
					comp[u] = label
					stack = append(stack, u)
				}
			}
		}
		label++
	}
	return comp
}
