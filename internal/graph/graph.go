// Package graph provides the graph substrate for the private edge-weight
// model of Sealfon (PODS 2016): graphs whose topology is public while the
// edge weights are private.
//
// A Graph stores only topology. Edges are identified by dense integer IDs
// so that parallel edges (needed by the paper's lower-bound gadgets) are
// first-class, and so that a weight assignment is simply a []float64
// indexed by edge ID. Two weight vectors are "neighboring" in the privacy
// model if their l1 distance is at most one; keeping weights out of the
// topology makes that relation, and all sensitivity accounting, exact.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Edge is one edge of a graph. Edges are undirected unless the graph was
// built with NewDirected, in which case the edge is oriented From -> To.
type Edge struct {
	ID   int
	From int
	To   int
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.From:
		return e.To
	case e.To:
		return e.From
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %d (%d,%d)", v, e.ID, e.From, e.To))
}

// Half is one directed half-edge in an adjacency list: the edge ID together
// with the far endpoint as seen from the vertex whose list contains it.
type Half struct {
	Edge int // edge ID
	To   int // far endpoint
}

// csr is a frozen compressed-sparse-row adjacency snapshot: the half-edges
// of vertex v occupy halves[offsets[v]:offsets[v+1]]. It is built once from
// the edge list and never mutated, so readers can share it without locks.
type csr struct {
	offsets []int32
	halves  []Half
}

// Graph is a (multi)graph with a fixed vertex set {0, ..., N-1} and edges
// identified by dense IDs {0, ..., M-1}. The zero value is an empty
// undirected graph with no vertices; use New or NewDirected for a graph
// with vertices.
//
// The edge list is the mutable builder; adjacency is served from a frozen
// CSR snapshot built on first use and invalidated by AddEdge. Concurrent
// reads (Adj, Degree, traversals) are safe once construction is done;
// AddEdge must not race with readers, exactly as with any mutable slice.
type Graph struct {
	n        int
	directed bool
	edges    []Edge

	frozen  atomic.Pointer[csr] // current snapshot; nil after a mutation
	buildMu sync.Mutex          // serializes snapshot builds
}

// New returns an empty undirected graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n}
}

// NewDirected returns an empty directed graph on n vertices.
func NewDirected(n int) *Graph {
	g := New(n)
	g.directed = true
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// AddEdge appends an edge from u to v and returns its ID. Parallel edges
// and self-loops are permitted; the lower-bound constructions of the paper
// rely on parallel edges. Adding an edge invalidates the frozen adjacency
// snapshot; it is rebuilt on the next adjacency read.
func (g *Graph) AddEdge(u, v int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0, %d)", u, v, g.n))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, From: u, To: v})
	g.frozen.Store(nil)
	return id
}

// csrSnapshot returns the current CSR adjacency, building it if the edge
// list changed since the last build. The double-checked build keeps
// concurrent first reads safe while steady-state reads stay a single
// atomic load.
func (g *Graph) csrSnapshot() *csr {
	if c := g.frozen.Load(); c != nil {
		return c
	}
	g.buildMu.Lock()
	defer g.buildMu.Unlock()
	if c := g.frozen.Load(); c != nil {
		return c
	}
	c := buildCSR(g.n, g.directed, g.edges)
	g.frozen.Store(c)
	return c
}

// buildCSR assembles the flat offsets/halves arrays in two counting-sort
// passes over the edge list. Per-vertex half-edge order matches edge
// insertion order, with the From-side half first for each undirected edge
// — the same order the historical append-based adjacency produced.
func buildCSR(n int, directed bool, edges []Edge) *csr {
	offsets := make([]int32, n+1)
	for _, e := range edges {
		offsets[e.From+1]++
		if !directed && e.From != e.To {
			offsets[e.To+1]++
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	halves := make([]Half, offsets[n])
	next := make([]int32, n)
	copy(next, offsets[:n])
	for _, e := range edges {
		halves[next[e.From]] = Half{Edge: e.ID, To: e.To}
		next[e.From]++
		if !directed && e.From != e.To {
			halves[next[e.To]] = Half{Edge: e.ID, To: e.From}
			next[e.To]++
		}
	}
	return &csr{offsets: offsets, halves: halves}
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge {
	return g.edges[id]
}

// Edges returns the edge slice. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Adj returns the adjacency list of v: all half-edges leaving v. For
// undirected graphs this includes edges added in either orientation. The
// returned slice aliases the frozen CSR snapshot; the caller must not
// modify it.
func (g *Graph) Adj(v int) []Half {
	c := g.csrSnapshot()
	return c.halves[c.offsets[v]:c.offsets[v+1]]
}

// Degree returns the number of half-edges at v (out-degree for directed
// graphs).
func (g *Graph) Degree(v int) int {
	c := g.csrSnapshot()
	return int(c.offsets[v+1] - c.offsets[v])
}

// HasEdgeBetween reports whether at least one edge joins u and v
// (in either orientation for undirected graphs). While the graph is
// still under construction (no frozen snapshot) it scans the edge list
// rather than forcing an adjacency build per probe.
func (g *Graph) HasEdgeBetween(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	if g.frozen.Load() == nil {
		for _, e := range g.edges {
			if (e.From == u && e.To == v) || (!g.directed && e.From == v && e.To == u) {
				return true
			}
		}
		return false
	}
	for _, h := range g.Adj(u) {
		if h.To == v {
			return true
		}
	}
	return false
}

// EdgeIDsBetween returns the IDs of all edges joining u and v, sorted.
// Like HasEdgeBetween, it scans the edge list while the graph is under
// construction instead of forcing a snapshot build.
func (g *Graph) EdgeIDsBetween(u, v int) []int {
	var ids []int
	if g.frozen.Load() == nil {
		for _, e := range g.edges {
			if (e.From == u && e.To == v) || (!g.directed && e.From == v && e.To == u) {
				ids = append(ids, e.ID)
			}
		}
		return ids // edge IDs are visited in increasing order
	}
	for _, h := range g.Adj(u) {
		if h.To == v {
			ids = append(ids, h.Edge)
		}
	}
	sort.Ints(ids)
	return ids
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, directed: g.directed}
	c.edges = append([]Edge(nil), g.edges...)
	return c
}

// Reverse returns the reverse of a directed graph (edge IDs preserved).
// For undirected graphs it returns a clone.
func (g *Graph) Reverse() *Graph {
	if !g.directed {
		return g.Clone()
	}
	r := NewDirected(g.n)
	for _, e := range g.edges {
		r.AddEdge(e.To, e.From)
	}
	return r
}

// Undirected returns an undirected copy of g with the same edge IDs.
func (g *Graph) Undirected() *Graph {
	if !g.directed {
		return g.Clone()
	}
	u := New(g.n)
	for _, e := range g.edges {
		u.AddEdge(e.From, e.To)
	}
	return u
}

// Connected reports whether the graph, viewed as undirected, is connected.
// The empty graph and single-vertex graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	comp := g.Components()
	return comp.Count == 1
}

// Components holds a partition of the vertex set into connected components
// of the underlying undirected graph.
type ComponentSet struct {
	Count int   // number of components
	Label []int // Label[v] in [0, Count) identifies v's component
}

// Vertices returns the vertices of component c, in increasing order.
func (cs *ComponentSet) Vertices(c int) []int {
	var vs []int
	for v, l := range cs.Label {
		if l == c {
			vs = append(vs, v)
		}
	}
	return vs
}

// Components computes the connected components of the underlying
// undirected graph via iterative depth-first search.
func (g *Graph) Components() *ComponentSet {
	label := make([]int, g.n)
	for i := range label {
		label[i] = -1
	}
	// For directed graphs we need the union of out- and in-adjacency;
	// undirected CSR snapshots already carry both directions.
	undirected := g
	if g.directed {
		undirected = g.Undirected()
	}
	adj := undirected.csrSnapshot()
	count := 0
	stack := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if label[s] != -1 {
			continue
		}
		label[s] = count
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range adj.halves[adj.offsets[v]:adj.offsets[v+1]] {
				if label[h.To] == -1 {
					label[h.To] = count
					stack = append(stack, h.To)
				}
			}
		}
		count++
	}
	return &ComponentSet{Count: count, Label: label}
}

// IsSimple reports whether the graph has no self-loops and no parallel
// edges.
func (g *Graph) IsSimple() bool {
	type pair struct{ a, b int }
	seen := make(map[pair]bool, len(g.edges))
	for _, e := range g.edges {
		if e.From == e.To {
			return false
		}
		a, b := e.From, e.To
		if !g.directed && a > b {
			a, b = b, a
		}
		p := pair{a, b}
		if seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// PathWeight returns the total weight of a path given as a sequence of
// edge IDs.
func PathWeight(w []float64, path []int) float64 {
	total := 0.0
	for _, id := range path {
		total += w[id]
	}
	return total
}

// ValidatePath checks that the edge-ID sequence path is a walk from s to t
// in g, returning an error describing the first violation.
func (g *Graph) ValidatePath(s, t int, path []int) error {
	cur := s
	for i, id := range path {
		if id < 0 || id >= g.M() {
			return fmt.Errorf("graph: path step %d: edge %d out of range", i, id)
		}
		e := g.edges[id]
		switch {
		case e.From == cur:
			cur = e.To
		case !g.directed && e.To == cur:
			cur = e.From
		default:
			return fmt.Errorf("graph: path step %d: edge %d (%d,%d) does not extend walk at vertex %d", i, id, e.From, e.To, cur)
		}
	}
	if cur != t {
		return fmt.Errorf("graph: path ends at %d, want %d", cur, t)
	}
	return nil
}

// PathVertices expands an edge-ID path starting at s into the vertex
// sequence it visits.
func (g *Graph) PathVertices(s int, path []int) []int {
	vs := make([]int, 0, len(path)+1)
	vs = append(vs, s)
	cur := s
	for _, id := range path {
		e := g.edges[id]
		cur = e.Other(cur)
		vs = append(vs, cur)
	}
	return vs
}

// TotalWeight sums a weight vector.
func TotalWeight(w []float64) float64 {
	total := 0.0
	for _, x := range w {
		total += x
	}
	return total
}

// L1Distance returns the l1 distance between two weight vectors of equal
// length. It panics on length mismatch.
func L1Distance(w, w2 []float64) float64 {
	if len(w) != len(w2) {
		panic("graph: L1Distance length mismatch")
	}
	d := 0.0
	for i := range w {
		d += math.Abs(w[i] - w2[i])
	}
	return d
}

// Neighboring reports whether two weight vectors are neighbors in the
// private edge-weight model: l1 distance at most one.
func Neighboring(w, w2 []float64) bool {
	return L1Distance(w, w2) <= 1
}

// UniformWeights returns a weight vector assigning c to every edge of g.
func UniformWeights(g *Graph, c float64) []float64 {
	w := make([]float64, g.M())
	for i := range w {
		w[i] = c
	}
	return w
}

// ClampWeights returns a copy of w with every entry clamped to [lo, hi].
func ClampWeights(w []float64, lo, hi float64) []float64 {
	c := make([]float64, len(w))
	for i, x := range w {
		c[i] = math.Min(math.Max(x, lo), hi)
	}
	return c
}
