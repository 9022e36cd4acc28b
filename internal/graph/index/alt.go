package index

import (
	"math"
	"runtime"
	"sync"
)

// This file implements the ALT (A*, Landmarks, Triangle inequality)
// index — the fallback family for graphs where contraction degenerates.
// A handful of landmarks is chosen by farthest-point selection over hop
// distance; each landmark's exact weighted distances to every vertex
// are precomputed (in parallel across GOMAXPROCS), and queries run A*
// with the lower bound h(v) = max_L |d(L, t) - d(L, v)|, which the
// triangle inequality makes admissible and consistent on an undirected
// graph.

// MaxLandmarks bounds the landmark count so per-query scratch stays a
// fixed-size array. A sealed artifact declaring more is refused when
// read, since no ALT index could serve it.
const MaxLandmarks = 32

type altIndex struct {
	n    int
	comp []int32

	// Simplified CSR adjacency (shared with the prepared form).
	off []int32
	to  []int32
	wt  []float64

	k  int       // landmark count
	ld []float64 // ld[l*n + v] = distance from landmark l to v

	pool sync.Pool // *altWork
}

type altWork struct {
	st *searchState
	lt [MaxLandmarks]float64 // per-query landmark-to-target distances
}

func (a *altIndex) N() int       { return a.n }
func (a *altIndex) Kind() string { return "alt" }

// buildALT selects landmarks and fills their distance rows.
func buildALT(p *prepared) *altIndex {
	n := p.n
	a := &altIndex{n: n, comp: p.comp, off: p.off, to: p.to, wt: p.wt}
	k := altLandmarks
	if k > MaxLandmarks {
		k = MaxLandmarks
	}
	if k > n {
		k = n
	}
	a.k = k
	a.ld = make([]float64, k*n)
	if k == 0 {
		a.pool.New = func() any { return &altWork{st: newSearchState(n)} }
		return a
	}

	// Farthest-point selection over hop distance: cheap BFS sweeps pick
	// well-spread landmarks (unreached vertices count as infinitely far,
	// so every component gets covered first), leaving the expensive
	// weighted Dijkstra rows to one parallel pass below.
	lms := make([]int32, 0, k)
	minHops := make([]int32, n)
	for i := range minHops {
		minHops[i] = math.MaxInt32
	}
	hops := make([]int32, n)
	queue := make([]int32, 0, n)
	next := int32(0)
	for len(lms) < k {
		lms = append(lms, next)
		for i := range hops {
			hops[i] = -1
		}
		hops[next] = 0
		queue = append(queue[:0], next)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for i := p.off[v]; i < p.off[v+1]; i++ {
				if u := p.to[i]; hops[u] == -1 {
					hops[u] = hops[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for v := 0; v < n; v++ {
			if hops[v] >= 0 && hops[v] < minHops[v] {
				minHops[v] = hops[v]
			}
		}
		// Next landmark: the vertex farthest from all chosen so far.
		next = 0
		var far int32 = -1
		for v := 0; v < n; v++ {
			if minHops[v] > far {
				far, next = minHops[v], int32(v)
			}
		}
	}

	// One exact Dijkstra per landmark, sharded across GOMAXPROCS.
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	var wg sync.WaitGroup
	rows := make(chan int, k)
	for l := 0; l < k; l++ {
		rows <- l
	}
	close(rows)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newSearchState(n)
			for l := range rows {
				a.fillRow(st, lms[l], a.ld[l*n:(l+1)*n])
			}
		}()
	}
	wg.Wait()

	a.pool.New = func() any { return &altWork{st: newSearchState(n)} }
	return a
}

// fillRow runs a full Dijkstra from src, writing every vertex's
// distance (Inf where unreachable) into row.
func (a *altIndex) fillRow(st *searchState, src int32, row []float64) {
	for i := range row {
		row[i] = math.Inf(1)
	}
	st.begin()
	st.update(src, 0, 0)
	for !st.empty() {
		v, d := st.pop()
		row[v] = d
		for i := a.off[v]; i < a.off[v+1]; i++ {
			u := a.to[i]
			if st.settled(u) {
				continue
			}
			if nd := d + a.wt[i]; nd < st.distance(u) {
				st.update(u, nd, nd)
			}
		}
	}
}

// Distance answers one query by A* under the landmark bound.
func (a *altIndex) Distance(s, t int) float64 {
	if s == t {
		return 0
	}
	if a.comp[s] != a.comp[t] {
		return math.Inf(1)
	}
	ws := a.pool.Get().(*altWork)
	n := a.n
	for l := 0; l < a.k; l++ {
		ws.lt[l] = a.ld[l*n+t]
	}
	h := func(v int32) float64 {
		bound := 0.0
		for l := 0; l < a.k; l++ {
			lt := ws.lt[l]
			lv := a.ld[l*n+int(v)]
			// Landmarks in other components see both endpoints at Inf;
			// skip them rather than produce Inf - Inf.
			if math.IsInf(lt, 1) || math.IsInf(lv, 1) {
				continue
			}
			if d := math.Abs(lv - lt); d > bound {
				bound = d
			}
		}
		return bound
	}
	st := ws.st
	st.begin()
	st.update(int32(s), 0, h(int32(s)))
	result := math.Inf(1)
	for !st.empty() {
		v, d := st.pop()
		if int(v) == t {
			result = d
			break
		}
		for i := a.off[v]; i < a.off[v+1]; i++ {
			u := a.to[i]
			if st.settled(u) {
				continue
			}
			if nd := d + a.wt[i]; nd < st.distance(u) {
				st.update(u, nd, nd+h(u))
			}
		}
	}
	a.pool.Put(ws)
	return result
}
