package index

import "math"

// This file implements the PHAST-style one-to-all sweep over a built
// hierarchy. A bidirectional CH query pays a full upward climb per
// target; when one source fans out to many targets that per-pair cost
// dominates. The sweep pays it once: an upward Dijkstra from s labels
// the source's search space, then one linear pass over the vertices in
// descending contraction rank relaxes every upward edge *backwards*
// (dist[v] = min(dist[v], dist[u] + w) for each upward edge v→u), so a
// k-target batch costs O(search + n + m) instead of k upward searches.
//
// Correctness: every shortest s-v path has an up-down form; its peak is
// labeled exactly by the upward phase (stall-on-demand never stalls a
// peak), and the downward chain from the peak to v is relaxed in order
// because each hop goes to a strictly lower rank, which the sweep
// visits later. Every value ever written is the length of a real walk,
// so nothing can undershoot.

// OneToAll is the capability interface of indexes that can answer
// repeated-source batches with a single hierarchy sweep. The oracle's
// batch path routes a source's pairs through DistancesFrom once the
// number of distinct targets reaches MinSweepTargets.
type OneToAll interface {
	Index

	// DistancesFrom fills out[i] with the distance from s to targets[i]
	// (math.Inf(1) for unreachable targets). len(out) must equal
	// len(targets) and every vertex must be in [0, N()).
	DistancesFrom(s int, targets []int, out []float64)

	// MinSweepTargets reports the per-source batch size above which one
	// sweep is expected to beat per-pair point queries on this index.
	MinSweepTargets() int
}

// sweepState is the pooled scratch of one sweep: the upward search
// state and the full distance array the downward scan fills.
type sweepState struct {
	st   *searchState
	dist []float64
}

// MinSweepTargets: a sweep is O(n + m) against ~polylog per point
// query, so the break-even grows with the graph; the constants below
// put it at a few dozen targets on bench-sized grids.
func (c *chIndex) MinSweepTargets() int { return 16 + c.n/1024 }

// DistancesFrom runs one upward search from s and one downward scan,
// then gathers the requested targets. Allocation-free in steady state:
// both phases run on a pooled sweepState.
//
//dpvet:hotpath
func (c *chIndex) DistancesFrom(s int, targets []int, out []float64) {
	ws := c.sweepPool.Get().(*sweepState)
	st, dist := ws.st, ws.dist

	// Upward phase: plain stall-on-demand Dijkstra from s over the
	// upward graph, run to exhaustion (no opposite frontier to bound it).
	st.begin()
	st.update(int32(s), 0, 0)
	for !st.empty() {
		v, d := st.pop()
		stalled := false
		for i := c.upOff[v]; i < c.upOff[v+1]; i++ {
			if st.distance(c.upTo[i])+c.upWt[i] < d {
				stalled = true
				break
			}
		}
		if stalled {
			continue
		}
		for i := c.upOff[v]; i < c.upOff[v+1]; i++ {
			u := c.upTo[i]
			if st.settled(u) {
				continue
			}
			if nd := d + c.upWt[i]; nd < st.distance(u) {
				st.update(u, nd, nd)
			}
		}
	}
	for v := range dist {
		dist[v] = st.distance(int32(v))
	}

	// Downward phase: vertices in descending rank order; every upward
	// neighbor u of v is already final when v is scanned.
	for _, v := range c.order {
		d := dist[v]
		for i := c.upOff[v]; i < c.upOff[v+1]; i++ {
			if nd := dist[c.upTo[i]] + c.upWt[i]; nd < d {
				d = nd
			}
		}
		dist[v] = d
	}

	for i, t := range targets {
		out[i] = dist[t]
	}
	c.sweepPool.Put(ws)
}

// initSweep wires the sweep scratch pool; called by freeze and by
// rehydration once n, the upward CSR, and order are in place.
func (c *chIndex) initSweep() {
	n := c.n
	c.sweepPool.New = func() any {
		ws := &sweepState{st: newSearchState(n), dist: make([]float64, n)}
		for i := range ws.dist {
			ws.dist[i] = math.Inf(1)
		}
		return ws
	}
}

// topoOrder derives a sweep order for a rehydrated hierarchy, where the
// contraction ranks are gone: any topological order of the upward DAG
// that places every edge's target before its source is
// descending-rank-compatible, which is all the downward scan needs.
// Returns false when the claimed upward graph is cyclic — flat arrays
// carrying a cycle were never produced by a contraction and would make
// the sweep silently wrong.
func topoOrder(n int, upOff, upTo []int32) ([]int32, bool) {
	// pending[v] counts v's upward edges whose targets are not yet
	// placed; rev is the CSR of reversed upward edges.
	pending := make([]int32, n)
	revOff := make([]int32, n+1)
	for _, u := range upTo {
		revOff[u+1]++
	}
	for v := 0; v < n; v++ {
		pending[v] = upOff[v+1] - upOff[v]
		revOff[v+1] += revOff[v]
	}
	revTo := make([]int32, len(upTo))
	next := make([]int32, n)
	copy(next, revOff[:n])
	for v := int32(0); v < int32(n); v++ {
		for i := upOff[v]; i < upOff[v+1]; i++ {
			u := upTo[i]
			revTo[next[u]] = v
			next[u]++
		}
	}
	order := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if pending[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		u := order[head]
		for i := revOff[u]; i < revOff[u+1]; i++ {
			v := revTo[i]
			pending[v]--
			if pending[v] == 0 {
				order = append(order, v)
			}
		}
	}
	return order, len(order) == n
}
