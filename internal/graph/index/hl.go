package index

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the hub-labeling index: a 2-hop labeling computed
// from the contraction order of an already-built hierarchy. Every vertex
// v carries a label L(v) — a sorted flat array of (hub, dist) pairs over
// v and higher-ranked vertices, built top-down by merging the labels of
// v's upward neighbours — and a point query is the minimum, over the
// hubs h common to L(s) and L(t), of d_s(h) + d_t(h): no heap, no graph
// traversal. On hierarchical topologies labels run tens-to-hundreds of
// entries, putting point queries in the single-digit-microsecond range,
// an order of magnitude under the bidirectional CH search.
//
// The query follows Abraham et al. ("Hierarchical Hub Labelings for
// Shortest Paths", ESA 2012): L(s) is scattered into a dense table
// indexed by hub id, +Inf everywhere else, and L(t) is scanned against
// it — one predictable loop instead of a merge whose direction is a
// coin flip at every step. A table stays scattered between queries, so
// a run of pairs sharing a vertex, in either position, scatters it
// once.
//
// Correctness inherits from the hierarchy: every shortest s-t path has
// an up-down form whose peak (maximum-rank) vertex appears in both
// labels with its exact distance, so the minimum over common hubs
// equals the CH query answer. Entries whose distance overestimates the
// true distance are redundant but harmless (every candidate sum is the
// length of a real walk); label pruning removes most of them: an entry
// (h, d) is dropped when some higher hub h' already proves a strictly
// shorter v-h connection, which can never hold for a peak vertex.
//
// Labels are pure post-processing of the released weights — exactly
// like the hierarchy they are computed from, they touch nothing private
// and carry zero additional privacy cost.

// hlIndex is the frozen, query-ready labeling: component ids plus a
// label arena of three parallel flat arrays, vertex v's label occupying
// labHub/labDist[labOff[v]:labOff[v+1]], sorted by ascending hub id.
// Every query, point or batch, is a label scan. The upward CSR of the
// hierarchy the labels were built from rides along for Export only,
// which seals the labels as pointers into it (hlsource.go); it is nil
// for labels restored without their hierarchy. tables pools the dense
// hub tables the scan reads, 8n bytes each, one per query in flight.
type hlIndex struct {
	n    int
	comp []int32

	upOff []int32
	upTo  []int32
	upWt  []float64

	labOff  []int64
	labHub  []int32
	labDist []float64

	tables sync.Pool // *hlTable
}

// hlTable is one dense hub table: dist[h] is vertex v's label distance
// to hub h, and +Inf for every hub outside L(v). v is -1 while the
// table holds no label.
type hlTable struct {
	v    int32
	dist []float64
}

// newHLIndex wraps f's validated label arena and the upward CSR it was
// built from (nil when unknown), with a table pool over its n hubs.
func newHLIndex(n int, comp []int32, f *FlatIndex) *hlIndex {
	x := &hlIndex{
		n: n, comp: comp,
		upOff: f.UpOff, upTo: f.UpTo, upWt: f.UpWt,
		labOff: f.LabOff, labHub: f.LabHub, labDist: f.LabDist,
	}
	x.tables.New = func() any {
		dist := make([]float64, n)
		for h := range dist {
			dist[h] = math.Inf(1)
		}
		return &hlTable{v: -1, dist: dist}
	}
	return x
}

func (x *hlIndex) N() int       { return x.n }
func (x *hlIndex) Kind() string { return "hl" }

// Distance scans L(t) against a table holding L(s) and returns the
// minimum hub-distance sum. A pooled table that already holds t serves
// the pair swapped (the index is undirected); one holding neither is
// loaded with L(s). Every common hub contributes the same float64 sum
// in either orientation, and whichever label the scan walks, it meets
// the common hubs in ascending order, so the answer does not depend on
// which vertex the table held.
//
//dpvet:hotpath
func (x *hlIndex) Distance(s, t int) float64 {
	if s == t {
		return 0
	}
	if x.comp[s] != x.comp[t] {
		return math.Inf(1)
	}
	tab := x.tables.Get().(*hlTable)
	if int(tab.v) == t {
		s, t = t, s
	} else if int(tab.v) != s {
		x.load(tab, int32(s))
	}
	dist := tab.dist
	lo, hi := x.labOff[t], x.labOff[t+1]
	hubs, dists := x.labHub[lo:hi], x.labDist[lo:hi]
	dists = dists[:len(hubs)]
	best := math.Inf(1)
	for i, h := range hubs {
		if d := dist[h] + dists[i]; d < best {
			best = d
		}
	}
	x.tables.Put(tab)
	return best
}

// load makes tab hold L(v): the entries of the label it held go back to
// +Inf, then L(v) is scattered in. Both passes touch only label
// entries, never the whole table.
//
//dpvet:hotpath
func (x *hlIndex) load(tab *hlTable, v int32) {
	dist := tab.dist
	if old := tab.v; old >= 0 {
		for _, h := range x.labHub[x.labOff[old]:x.labOff[old+1]] {
			dist[h] = math.Inf(1)
		}
	}
	lo, hi := x.labOff[v], x.labOff[v+1]
	hubs, dists := x.labHub[lo:hi], x.labDist[lo:hi]
	dists = dists[:len(hubs)]
	for i, h := range hubs {
		dist[h] = dists[i]
	}
	tab.v = v
}

// hlWork is one label-generation worker's scratch: a dense tentative
// distance per hub (+Inf when not a candidate of the current vertex)
// and the candidate list that resets it.
type hlWork struct {
	tent  []float64
	cands []int32
}

// buildHL computes the labeling from a built hierarchy. With avgLabel
// > 0 (Auto mode) it aborts with errLabelsTooBig once the total kept
// entries pass avgLabel * n — the caller then serves from the
// hierarchy alone; an explicit HL request passes 0 and always
// completes.
//
// Vertices are processed top-down, parallel within levels of equal
// up-DAG depth: labeling v reads only the labels of v's upward
// neighbours and of their hubs, all of strictly smaller depth, so every
// read happens after the barrier that completed that level. A label
// depends only on labels already built, never on which worker built
// what, so the result is the same at any GOMAXPROCS. The result keeps
// ch's component ids and upward CSR; the rest of the hierarchy can be
// collected once labelling ends.
func buildHL(ch *chIndex, avgLabel int) (*hlIndex, error) {
	n := ch.n

	// Up-DAG depth per vertex: 0 at maximal vertices, 1 + max over
	// upward neighbors below. ch.order is descending rank, so every
	// upward neighbor is finalized before its source.
	depth := make([]int32, n)
	var maxDepth int32
	for _, v := range ch.order {
		var d int32
		for i := ch.upOff[v]; i < ch.upOff[v+1]; i++ {
			if nd := depth[ch.upTo[i]] + 1; nd > d {
				d = nd
			}
		}
		depth[v] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	levels := make([][]int32, maxDepth+1)
	for v := int32(0); v < int32(n); v++ {
		levels[depth[v]] = append(levels[depth[v]], v)
	}

	hubs := make([][]int32, n)
	dists := make([][]float64, n)
	guard := int64(-1)
	if avgLabel > 0 {
		guard = int64(avgLabel) * int64(n)
	}
	var total atomic.Int64
	var aborted atomic.Bool

	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	works := make([]*hlWork, workers)
	for i := range works {
		tent := make([]float64, n)
		for v := range tent {
			tent[v] = math.Inf(1)
		}
		works[i] = &hlWork{tent: tent}
	}
	for _, level := range levels {
		if aborted.Load() {
			break
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wk := workers
		if wk > len(level) {
			wk = len(level)
		}
		for w := 0; w < wk; w++ {
			wg.Add(1)
			go func(work *hlWork) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if int(i) >= len(level) || aborted.Load() {
						return
					}
					v := level[i]
					kept := labelVertex(ch, v, work, hubs, dists)
					if guard >= 0 && total.Add(int64(kept)) > guard {
						aborted.Store(true)
						return
					}
				}
			}(works[w])
		}
		wg.Wait()
	}
	if aborted.Load() {
		return nil, errLabelsTooBig
	}

	labOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		labOff[v+1] = labOff[v] + int64(len(hubs[v]))
	}
	labHub := make([]int32, labOff[n])
	labDist := make([]float64, labOff[n])
	for v := 0; v < n; v++ {
		copy(labHub[labOff[v]:], hubs[v])
		copy(labDist[labOff[v]:], dists[v])
	}
	return newHLIndex(n, ch.comp, &FlatIndex{
		UpOff: ch.upOff, UpTo: ch.upTo, UpWt: ch.upWt,
		LabOff: labOff, LabHub: labHub, LabDist: labDist,
	}), nil
}

// labelVertex builds L(v) top-down from the labels of v's upward
// neighbours (Abraham et al., "Hierarchical Hub Labelings for Shortest
// Paths", ESA 2012): the candidates are (v, 0) plus (h, w + d) for each
// upward edge (v→u, w) and each entry (h, d) of L(u), keeping the
// minimum per hub. The survivors of pruning are stored sorted by hub
// id. The peak p of a shortest up-down path keeps its exact distance in
// every label along the path's upward half, by induction down from
// L(p), because pruning is strict.
func labelVertex(ch *chIndex, v int32, work *hlWork, hubs [][]int32, dists [][]float64) int {
	tent := work.tent
	tent[v] = 0
	cands := append(work.cands[:0], v)
	for i := ch.upOff[v]; i < ch.upOff[v+1]; i++ {
		u, w := ch.upTo[i], ch.upWt[i]
		uDists := dists[u]
		for j, h := range hubs[u] {
			if nd, t := w+uDists[j], tent[h]; nd < t {
				if math.IsInf(t, 1) {
					cands = append(cands, h)
				}
				tent[h] = nd
			}
		}
	}
	slices.Sort(cands)
	work.cands = cands

	kh := make([]int32, 0, len(cands))
	kd := make([]float64, 0, len(cands))
	for _, h := range cands {
		d := tent[h]
		if h != v && prunedVia(tent, hubs[h], dists[h], d) {
			continue
		}
		kh = append(kh, h)
		kd = append(kd, d)
	}
	for _, h := range cands {
		tent[h] = math.Inf(1)
	}
	hubs[v], dists[v] = kh, kd
	return len(kh)
}

// prunedVia reports whether some hub h' of the candidate hub's label
// proves a strictly shorter connection than the candidate entry's
// distance d: tent[h'] + dist(h', h) < d, where tent holds v's
// candidate distances (each the length of a real walk) and +Inf for
// non-candidates. Strictness is what makes pruning safe: a peak vertex
// carries its exact distance, for which no strictly shorter two-hop
// bound can exist.
func prunedVia(tent []float64, labHubs []int32, labDists []float64, d float64) bool {
	for j, h2 := range labHubs {
		if tent[h2]+labDists[j] < d {
			return true
		}
	}
	return false
}
