package index

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// This file implements the contraction-hierarchy index: nodes are
// contracted bottom-up in order of a lazily maintained priority (edge
// difference, contracted neighbors and level; see priority), each
// contraction inserting the shortcuts a witness search cannot rule out;
// queries run a bidirectional Dijkstra over the upward graph with
// stall-on-demand pruning. On hierarchical topologies (grids, road-like
// networks, hub-and-spoke graphs) a query settles a few hundred
// vertices however large the graph is. The order also sets the size of
// the hub labels built from the hierarchy (Abraham et al., ESA 2012), so
// the priority favors a flat hierarchy over a merely sparse one.
//
// Auto builds are guarded: on a graph with no hierarchy the shortcuts
// pile up, and degenerate stops the attempt as soon as their rate
// shows it, before the ever denser core that costs most of a doomed
// attempt.
//
// Witness searches are nearly all of the build time, so contraction
// keeps them small without changing what they find: the dynamic
// adjacency holds live neighbors only (a contracted vertex is deleted
// from its neighbors' lists, order kept), and each search stops as soon
// as every shortcut decision it feeds is fixed. The hierarchy is the
// one the plain algorithm builds, down to the tie-breaks among equal
// paths; TestHierarchyGolden pins it.

// chIndex is the frozen, query-ready hierarchy: a flat CSR of upward
// edges (original and shortcut) per vertex, ordered by contraction rank.
type chIndex struct {
	n    int
	comp []int32
	rank []int32

	// Upward adjacency: edges from v to neighbors contracted later.
	// Both the forward and the backward search climb this same graph
	// (the topology is undirected), so no downward copy is stored.
	upOff []int32
	upTo  []int32
	upWt  []float64

	// order lists the vertices in descending contraction rank, so every
	// vertex comes before all vertices with upward edges into it: the
	// scan order of label generation. Only freeze fills it; a
	// rehydrated hierarchy never builds labels.
	order []int32

	pool sync.Pool // *chWorkspace
}

type chWorkspace struct {
	f, b *searchState
}

func (c *chIndex) N() int       { return c.n }
func (c *chIndex) Kind() string { return "ch" }

// Distance runs the bidirectional upward search. Both directions climb
// the hierarchy; every vertex labeled by both sides closes a candidate
// up-down path, and a direction stops once its frontier key reaches the
// best candidate. Stall-on-demand: a popped vertex whose label is
// dominated via an edge from a higher-ranked, already-labeled neighbor
// cannot lie on a shortest up-down path, so its expansion is skipped.
//
//dpvet:hotpath
func (c *chIndex) Distance(s, t int) float64 {
	if s == t {
		return 0
	}
	if c.comp[s] != c.comp[t] {
		return math.Inf(1)
	}
	ws := c.pool.Get().(*chWorkspace)
	f, b := ws.f, ws.b
	f.begin()
	b.begin()
	f.update(int32(s), 0, 0)
	b.update(int32(t), 0, 0)
	best := math.Inf(1)
	for {
		fk, bk := f.minKey(), b.minKey()
		if fk >= best && bk >= best {
			break // both frontiers past the best meeting point (or empty)
		}
		dir, other := f, b
		if bk < fk {
			dir, other = b, f
		}
		v, d := dir.pop()
		if cand := d + other.distance(v); cand < best {
			best = cand
		}
		stalled := false
		for i := c.upOff[v]; i < c.upOff[v+1]; i++ {
			if dir.distance(c.upTo[i])+c.upWt[i] < d {
				stalled = true
				break
			}
		}
		if stalled {
			continue
		}
		for i := c.upOff[v]; i < c.upOff[v+1]; i++ {
			u := c.upTo[i]
			if dir.settled(u) {
				continue
			}
			if nd := d + c.upWt[i]; nd < dir.distance(u) {
				dir.update(u, nd, nd)
			}
		}
	}
	c.pool.Put(ws)
	return best
}

// dynEdge is one entry of the mutable adjacency used during
// contraction; shortcuts are merged in with a min-weight update.
type dynEdge struct {
	to int32
	w  float64
}

// chWork is the per-worker scratch for priority evaluation and
// contraction: a witness-search state, neighbor-gathering buffers, and
// the planned-shortcut record simulate leaves behind so contracting a
// node never repeats the witness searches its final priority
// evaluation just ran.
type chWork struct {
	st      *searchState
	nbr     []int32
	nwt     []float64
	mark    []int32 // mark[v] = index into nbr + 1, cleared after use
	decided []bool  // per nbr index: the current witness search's verdict is fixed

	scA, scB []int32 // planned shortcut endpoints
	scW      []float64
}

func newCHWork(n int) *chWork {
	return &chWork{st: newSearchState(n), mark: make([]int32, n)}
}

// chBuilder carries the contraction state. adj holds only live
// entries: contracting v removes it from every remaining neighbor's
// list, so the list of an uncontracted vertex names exactly its
// uncontracted neighbors, and the list of a contracted vertex — frozen
// from then on — names exactly its upward neighbors.
type chBuilder struct {
	p *prepared

	adj    [][]dynEdge
	rank   []int32
	delNbr []int32 // contracted-neighbor count (ordering heuristic)
	level  []int32 // 1 + the deepest contracted neighbor's level (ordering heuristic)

	contracted int   // vertices ranked so far
	shortcuts  int64 // shortcuts inserted so far
}

// buildCH contracts every node and freezes the upward graph. With
// guarded true (Auto mode) it aborts with errDegenerate as soon as
// degenerate reports a shortcut count no hierarchy reaches; an explicit
// CH request always completes.
func buildCH(p *prepared, guarded bool) (*chIndex, error) {
	b := newCHBuilder(p)
	if err := b.contract(guarded); err != nil {
		return nil, err
	}
	return b.freeze(), nil
}

// newCHBuilder copies p's adjacency into the mutable lists contraction
// works on.
func newCHBuilder(p *prepared) *chBuilder {
	n := p.n
	b := &chBuilder{
		p:      p,
		adj:    make([][]dynEdge, n),
		rank:   make([]int32, n),
		delNbr: make([]int32, n),
		level:  make([]int32, n),
	}
	for v := int32(0); v < int32(n); v++ {
		deg := int(p.off[v+1] - p.off[v])
		b.adj[v] = make([]dynEdge, 0, deg+2)
		for i := p.off[v]; i < p.off[v+1]; i++ {
			b.adj[v] = append(b.adj[v], dynEdge{to: p.to[i], w: p.wt[i]})
		}
	}
	return b
}

// contract ranks every vertex, or, guarded, stops with errDegenerate
// once degenerate fires.
func (b *chBuilder) contract(guarded bool) error {
	n := b.p.n
	// Initial priorities: a pure function of the untouched adjacency,
	// evaluated in parallel across GOMAXPROCS workers, each with its own
	// pooled workspace (the witness searches only read shared state).
	prio := make([]int32, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for wk := 0; wk < workers; wk++ {
		lo, hi := wk*chunk, (wk+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			w := newCHWork(n)
			for v := lo; v < hi; v++ {
				prio[v] = b.priority(int32(v), w)
			}
		}(lo, hi)
	}
	wg.Wait()

	// Lazy bottom-up ordering: pop the cheapest node, re-evaluate its
	// priority, and contract only if it still beats the next candidate;
	// otherwise push it back with the fresh value. Every vertex has
	// exactly one heap entry until it is contracted.
	h := &pairHeap{}
	h.nodes = make([]pairNode, 0, n)
	for v := 0; v < n; v++ {
		h.push(pairNode{prio: prio[v], v: int32(v)})
	}
	work := newCHWork(n)
	for h.len() > 0 {
		top := h.pop()
		v := top.v
		if fresh := b.priority(v, work); fresh > top.prio {
			if h.len() > 0 && fresh > h.min().prio {
				h.push(pairNode{prio: fresh, v: v})
				continue
			}
		}
		// priority just planned v's shortcuts; apply them directly
		// instead of repeating the witness searches.
		b.shortcuts += int64(b.apply(v, work))
		b.rank[v] = int32(b.contracted)
		b.contracted++
		if guarded && b.degenerate() {
			return errDegenerate
		}
	}
	return nil
}

// degenerate reports whether the shortcuts inserted so far already
// show a graph without a hierarchy to exploit: more than
// maxShortcutFactor * M in total, or, from the rateSample-th
// contraction until half the vertices are contracted, a shortcut rate
// (shortcuts per contracted vertex, in units of M/N) above
// maxShortcutRate. The queue contracts the cheapest vertices first, so
// on a hierarchical graph the rate starts low and climbs slowly: at
// half way it reads 0.96 on the perfbench city and at most 1.36 on the
// grids of EXPERIMENTS E36 (U[1,2], U[1,1.1] and 1+i%7 weights). On
// ConnectedErdosRenyi(3000, d/3000) it passes 1.8 after 46% of the
// vertices at d = 3, 34% at d = 4, 17% at d = 6 and 7% at d = 8 (at
// the first check, 2%, from d = 12 on), before the denser and denser
// core that costs most of a doomed attempt.
func (b *chBuilder) degenerate() bool {
	m, n, k := float64(b.p.m()), float64(b.p.n), float64(b.contracted)
	sc := float64(b.shortcuts)
	if sc > maxShortcutFactor*m {
		return true
	}
	return k >= rateSample && 2*k <= n && sc*n > maxShortcutRate*k*m
}

// gather copies v's neighbors (all uncontracted, each listed once) and
// their edge weights into w.nbr/w.nwt, marking each one's index in
// w.mark (cleared on the next call).
func (b *chBuilder) gather(v int32, w *chWork) {
	for _, u := range w.nbr {
		w.mark[u] = 0
	}
	w.nbr = w.nbr[:0]
	w.nwt = w.nwt[:0]
	for _, e := range b.adj[v] {
		w.nbr = append(w.nbr, e.to)
		w.nwt = append(w.nwt, e.w)
		w.mark[e.to] = int32(len(w.nbr))
	}
}

// simulate plans the shortcuts contracting v requires, recording them
// in w.scA/scB/scW. For each neighbor u_i a witness search limited to
// witnessSettleLimit settled vertices looks for paths around v; a pair
// (u_i, u_j) gets a shortcut of weight w_i + w_j only when no witness
// path is at most that long. An exhausted witness budget inserts the
// shortcut conservatively — never wrong, only larger.
func (b *chBuilder) simulate(v int32, w *chWork) int {
	b.gather(v, w)
	w.scA, w.scB, w.scW = w.scA[:0], w.scB[:0], w.scW[:0]
	k := len(w.nbr)
	if k <= 1 {
		return 0
	}
	if cap(w.decided) < k {
		w.decided = make([]bool, k)
	}
	w.decided = w.decided[:k]
	maxOut := 0.0
	for _, x := range w.nwt {
		if x > maxOut {
			maxOut = x
		}
	}
	for i := 0; i < k-1; i++ {
		ui, wi := w.nbr[i], w.nwt[i]
		b.witness(v, w, i, wi+maxOut)
		for j := i + 1; j < k; j++ {
			uj, wj := w.nbr[j], w.nwt[j]
			if w.st.distance(uj) <= wi+wj {
				continue // witness path: no shortcut needed
			}
			w.scA = append(w.scA, ui)
			w.scB = append(w.scB, uj)
			w.scW = append(w.scW, wi+wj)
		}
	}
	return len(w.scA)
}

// witness runs a settle-limited Dijkstra from neighbor src of v over
// the uncontracted subgraph with v excluded; simulate reads the
// resulting labels through w.st.distance. The search stops past limit,
// once the settle budget is spent, or once every shortcut target (the
// neighbors u_j after src) is decided: settled, or labeled at most
// w_src + w_j. Labels only fall, so running on could change neither
// a decided target's verdict nor what the budget would have cut off.
func (b *chBuilder) witness(v int32, w *chWork, src int, limit float64) {
	st := w.st
	st.begin()
	st.update(w.nbr[src], 0, 0)
	ws := w.nwt[src]
	for j := src + 1; j < len(w.decided); j++ {
		w.decided[j] = false
	}
	open := len(w.nbr) - src - 1
	budget := witnessSettleLimit
	for !st.empty() && budget > 0 && open > 0 {
		if st.minKey() > limit {
			break
		}
		x, d := st.pop()
		budget--
		if j := int(w.mark[x]) - 1; j > src && !w.decided[j] {
			w.decided[j] = true
			open--
		}
		for _, e := range b.adj[x] {
			u := e.to
			if u == v || st.settled(u) {
				continue
			}
			if nd := d + e.w; nd < st.distance(u) {
				st.update(u, nd, nd)
				if j := int(w.mark[u]) - 1; j > src && !w.decided[j] && nd <= ws+w.nwt[j] {
					w.decided[j] = true
					open--
				}
			}
		}
	}
}

// insert merges a shortcut into u's adjacency, keeping the minimum
// weight per neighbor so the dynamic lists stay duplicate-free.
func (b *chBuilder) insert(u, to int32, wt float64) {
	list := b.adj[u]
	for i := range list {
		if list[i].to == to {
			if wt < list[i].w {
				list[i].w = wt
			}
			return
		}
	}
	b.adj[u] = append(list, dynEdge{to: to, w: wt})
}

// purge deletes v from u's adjacency. It shifts the tail rather than
// swapping the last entry in: the list order is the witness searches'
// relaxation order, and with it the tie-breaking among equal paths.
func (b *chBuilder) purge(u, v int32) {
	list := b.adj[u]
	for i := range list {
		if list[i].to == v {
			b.adj[u] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// priority is the lazy ordering key, after Geisberger et al.
// ("Contraction Hierarchies", WEA 2008): edgeDiffWeight times the edge
// difference (shortcuts added minus edges removed), plus the
// contracted-neighbor count, which spreads contraction evenly across
// the graph, plus the level, which holds back vertices that would stack
// the hierarchy deeper. Both make the hierarchy flatter and the labels
// built from it smaller. It leaves the planned shortcuts in w for apply
// to consume.
func (b *chBuilder) priority(v int32, w *chWork) int32 {
	sc := b.simulate(v, w)
	deg := len(w.nbr) // gather ran inside simulate
	return int32(edgeDiffWeight*(sc-deg)) + b.delNbr[v] + levelWeight*b.level[v]
}

// apply contracts v: it removes v from its neighbors' lists, inserts
// the shortcuts the latest simulate planned, and bumps the neighbors'
// ordering heuristic; the caller assigns v's rank. Nothing mutated
// between the plan and the apply (the ordering loop is serial), so the
// plan is exact. v's own list is left as it is: its upward edges.
func (b *chBuilder) apply(v int32, w *chWork) int {
	for _, u := range w.nbr {
		b.purge(u, v)
		b.delNbr[u]++
		if l := b.level[v] + 1; l > b.level[u] {
			b.level[u] = l
		}
	}
	for i := range w.scA {
		b.insert(w.scA[i], w.scB[i], w.scW[i])
		b.insert(w.scB[i], w.scA[i], w.scW[i])
	}
	return len(w.scA)
}

// freeze extracts the upward CSR: each vertex's list as it stood when
// the vertex was contracted, original edges and shortcuts alike. It
// also records the descending-rank order buildHL walks.
func (b *chBuilder) freeze() *chIndex {
	n := b.p.n
	c := &chIndex{n: n, comp: b.p.comp, rank: b.rank, upOff: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		c.upOff[v+1] = c.upOff[v] + int32(len(b.adj[v]))
	}
	c.upTo = make([]int32, c.upOff[n])
	c.upWt = make([]float64, c.upOff[n])
	for v := 0; v < n; v++ {
		lo, hi := c.upOff[v], c.upOff[v+1]
		for i, e := range b.adj[v] {
			c.upTo[lo+int32(i)], c.upWt[lo+int32(i)] = e.to, e.w
		}
		// Relaxation scans the whole upward list per pop; rank order is
		// as good as any, but a deterministic layout keeps builds
		// reproducible for identical inputs.
		sortUpEdges(c.upTo[lo:hi], c.upWt[lo:hi])
	}
	c.order = make([]int32, n)
	for v := 0; v < n; v++ {
		c.order[int32(n)-1-b.rank[v]] = int32(v)
	}
	c.pool.New = func() any {
		return &chWorkspace{f: newSearchState(n), b: newSearchState(n)}
	}
	return c
}

// sortUpEdges orders one vertex's upward edges by target id.
func sortUpEdges(to []int32, wt []float64) {
	sort.Sort(&upEdgeSlice{to: to, wt: wt})
}

type upEdgeSlice struct {
	to []int32
	wt []float64
}

func (s *upEdgeSlice) Len() int           { return len(s.to) }
func (s *upEdgeSlice) Less(i, j int) bool { return s.to[i] < s.to[j] }
func (s *upEdgeSlice) Swap(i, j int) {
	s.to[i], s.to[j] = s.to[j], s.to[i]
	s.wt[i], s.wt[j] = s.wt[j], s.wt[i]
}

// pairNode is one lazy-priority-queue entry; pairHeap is a plain binary
// heap over (priority, vertex) pairs with deterministic tie-breaking.
type pairNode struct {
	prio int32
	v    int32
}

type pairHeap struct {
	nodes []pairNode
}

func (h *pairHeap) len() int      { return len(h.nodes) }
func (h *pairHeap) min() pairNode { return h.nodes[0] }
func (h *pairHeap) less(a, b pairNode) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.v < b.v
}

func (h *pairHeap) push(x pairNode) {
	h.nodes = append(h.nodes, x)
	i := len(h.nodes) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.nodes[i], h.nodes[p]) {
			break
		}
		h.nodes[i], h.nodes[p] = h.nodes[p], h.nodes[i]
		i = p
	}
}

func (h *pairHeap) pop() pairNode {
	top := h.nodes[0]
	last := len(h.nodes) - 1
	h.nodes[0] = h.nodes[last]
	h.nodes = h.nodes[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		best := l
		if r := l + 1; r < last && h.less(h.nodes[r], h.nodes[l]) {
			best = r
		}
		if !h.less(h.nodes[best], h.nodes[i]) {
			break
		}
		h.nodes[i], h.nodes[best] = h.nodes[best], h.nodes[i]
		i = best
	}
	return top
}
