package index

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
)

// This file is the serialization boundary of the index package: a built
// index exports its query-ready flat arrays, and those arrays rebuild
// an equivalent index over the same (topology, weights) pair without
// repeating construction. Only the expensive, non-derivable state is
// exported — the CH upward graph (the product of contraction), the HL
// label arena (one pruned merge of the upward neighbours' labels per
// vertex) with the upward graph it was merged from, when known, and the
// ALT landmark distance rows (k full Dijkstras).
// Everything cheaply derivable from the topology and released weights
// (the simplified CSR, component labels) is recomputed at rehydration
// instead, which both shrinks snapshots and removes those arrays as a
// tamper surface: a rehydrated index can never disagree with its own
// topology about adjacency or connectivity.

// FlatIndex is the flat-array form of a built index, the shape the
// snapshot container stores. Kind selects which family the arrays
// belong to; the other families' fields are nil. The slices returned by
// Export alias the live index — callers must treat them as read-only.
type FlatIndex struct {
	// Kind is "ch", "alt", or "hl" (Index.Kind spellings).
	Kind string

	// Contraction hierarchy: the frozen upward CSR. UpOff has N+1
	// entries; UpTo/UpWt hold one entry per upward edge (original or
	// shortcut). An "hl" index carries the hierarchy its labels were
	// built from, or none when it was restored from labels alone.
	UpOff []int32
	UpTo  []int32
	UpWt  []float64

	// Hub labels: vertex v's label occupies
	// LabHub/LabDist[LabOff[v]:LabOff[v+1]], sorted by ascending hub id.
	LabOff  []int64
	LabHub  []int32
	LabDist []float64

	// ALT: Landmarks distance rows, row l occupying LD[l*N : (l+1)*N]
	// (+Inf where the landmark cannot reach the vertex).
	Landmarks int
	LD        []float64

	// rebuilt is set by RebuildLabels, which validated the hierarchy
	// and produced labels that meet every arena invariant, so Rehydrate
	// does not scan them again. The arrays must not change after.
	rebuilt bool
}

// Export returns the flat-array form of an index built by Build. It
// errs on index implementations this package does not know how to
// flatten (there are none today; the check guards future families).
func Export(idx Index) (*FlatIndex, error) {
	switch c := idx.(type) {
	case *chIndex:
		return &FlatIndex{Kind: "ch", UpOff: c.upOff, UpTo: c.upTo, UpWt: c.upWt}, nil
	case *hlIndex:
		return &FlatIndex{
			Kind: "hl", UpOff: c.upOff, UpTo: c.upTo, UpWt: c.upWt,
			LabOff: c.labOff, LabHub: c.labHub, LabDist: c.labDist,
		}, nil
	case *altIndex:
		return &FlatIndex{Kind: "alt", Landmarks: c.k, LD: c.ld}, nil
	}
	return nil, fmt.Errorf("index: cannot export index kind %q", idx.Kind())
}

// Rehydrate rebuilds a query-ready index over (g, w) from exported flat
// arrays, skipping construction entirely: no contraction for CH, no
// landmark Dijkstras for ALT. The simplified CSR and component labels
// are recomputed from the topology, so they cannot be lied about; the
// flat arrays themselves are validated structurally (bounds, monotone
// offsets, nonnegative finite weights) because they may arrive from an
// untrusted snapshot, once: labels RebuildLabels produced were checked
// as they were rebuilt. A structurally valid but semantically wrong array
// set yields wrong distances, not unsafety — authenticity is the
// snapshot signature's job, not this function's.
func Rehydrate(g *graph.Graph, w []float64, f *FlatIndex) (Index, error) {
	if len(w) != g.M() {
		return nil, fmt.Errorf("index: weight vector has %d entries for %d edges", len(w), g.M())
	}
	if err := checkSize(g.N(), g.M()); err != nil {
		return nil, err
	}
	if g.Directed() {
		return nil, fmt.Errorf("index: rehydration supports undirected topologies only")
	}
	for id, x := range w {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("index: edge %d has weight %g; indexes require nonnegative weights", id, x)
		}
	}
	p := prepare(g, w)
	switch f.Kind {
	case "ch":
		c, err := rehydrateCH(p, f)
		if err != nil {
			return nil, err // explicit nil: a typed-nil *chIndex is not a nil Index
		}
		return c, nil
	case "hl":
		return rehydrateHL(p, f)
	case "alt":
		return rehydrateALT(p, f)
	}
	return nil, fmt.Errorf("index: unknown flat index kind %q", f.Kind)
}

// rehydrateCH validates the upward-CSR invariants and freezes the
// query structure around them.
func rehydrateCH(p *prepared, f *FlatIndex) (*chIndex, error) {
	n := p.n
	if _, err := checkUpward(n, f); err != nil {
		return nil, err
	}
	c := &chIndex{n: n, comp: p.comp, upOff: f.UpOff, upTo: f.UpTo, upWt: f.UpWt}
	c.pool.New = func() any {
		return &chWorkspace{f: newSearchState(n), b: newSearchState(n)}
	}
	return c, nil
}

// checkUpward validates f's upward CSR over n vertices and returns the
// topological order topoOrder finds for it.
func checkUpward(n int, f *FlatIndex) ([]int32, error) {
	if len(f.UpOff) != n+1 {
		return nil, fmt.Errorf("index: CH upward offsets have %d entries for %d vertices (want %d)", len(f.UpOff), n, n+1)
	}
	if f.UpOff[0] != 0 {
		return nil, fmt.Errorf("index: CH upward offsets must start at 0, got %d", f.UpOff[0])
	}
	for v := 0; v < n; v++ {
		if f.UpOff[v+1] < f.UpOff[v] {
			return nil, fmt.Errorf("index: CH upward offsets decrease at vertex %d", v)
		}
	}
	total := int(f.UpOff[n])
	if len(f.UpTo) != total || len(f.UpWt) != total {
		return nil, fmt.Errorf("index: CH upward arrays have %d targets / %d weights for %d offset entries", len(f.UpTo), len(f.UpWt), total)
	}
	for i, u := range f.UpTo {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("index: CH upward edge %d targets vertex %d outside [0, %d)", i, u, n)
		}
	}
	for i, x := range f.UpWt {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("index: CH upward edge %d has weight %g; want nonnegative", i, x)
		}
	}
	// Every contraction hierarchy's upward graph is acyclic (each edge
	// climbs in rank); flat arrays carrying a cycle were never produced
	// by a contraction.
	order, ok := topoOrder(n, f.UpOff, f.UpTo)
	if !ok {
		return nil, fmt.Errorf("index: CH upward graph is cyclic; not a contraction hierarchy")
	}
	return order, nil
}

// rehydrateHL validates the label arena, and the hierarchy when f
// carries one, then rebuilds the query-ready labeling. Arrays that
// RebuildLabels produced were validated there and are not scanned
// again.
func rehydrateHL(p *prepared, f *FlatIndex) (Index, error) {
	n := p.n
	if len(f.LabOff) != n+1 {
		return nil, fmt.Errorf("index: HL label offsets have %d entries for %d vertices (want %d)", len(f.LabOff), n, n+1)
	}
	if f.rebuilt {
		return newHLIndex(n, p.comp, f), nil
	}
	if f.UpOff != nil {
		if _, err := checkUpward(n, f); err != nil {
			return nil, err
		}
	}
	if f.LabOff[0] != 0 {
		return nil, fmt.Errorf("index: HL label offsets must start at 0, got %d", f.LabOff[0])
	}
	for v := 0; v < n; v++ {
		if f.LabOff[v+1] < f.LabOff[v] {
			return nil, fmt.Errorf("index: HL label offsets decrease at vertex %d", v)
		}
	}
	total := f.LabOff[n]
	if int64(len(f.LabHub)) != total || int64(len(f.LabDist)) != total {
		return nil, fmt.Errorf("index: HL label arena has %d hubs / %d distances for %d offset entries", len(f.LabHub), len(f.LabDist), total)
	}
	for v := 0; v < n; v++ {
		for i := f.LabOff[v]; i < f.LabOff[v+1]; i++ {
			h := f.LabHub[i]
			if h < 0 || int(h) >= n {
				return nil, fmt.Errorf("index: vertex %d label entry names hub %d outside [0, %d)", v, h, n)
			}
			// Strict ascending hub order rules out duplicate hubs: the
			// query's hub table holds one distance per hub, so
			// scattering a repeated hub would keep only its last entry.
			if i > f.LabOff[v] && h <= f.LabHub[i-1] {
				return nil, fmt.Errorf("index: vertex %d label hubs not strictly ascending at entry %d", v, i-f.LabOff[v])
			}
		}
	}
	for i, x := range f.LabDist {
		if !(x >= 0) || math.IsInf(x, 1) {
			return nil, fmt.Errorf("index: HL label distance %d is %g; want finite nonnegative", i, x)
		}
	}
	return newHLIndex(n, p.comp, f), nil
}

// rehydrateALT validates the landmark rows and rebuilds the A* index
// over the recomputed simplified CSR.
func rehydrateALT(p *prepared, f *FlatIndex) (Index, error) {
	n := p.n
	k := f.Landmarks
	if k < 0 || k > MaxLandmarks {
		return nil, fmt.Errorf("index: ALT landmark count %d outside [0, %d]", k, MaxLandmarks)
	}
	if len(f.LD) != k*n {
		return nil, fmt.Errorf("index: ALT distance rows have %d entries for %d landmarks x %d vertices", len(f.LD), k, n)
	}
	for i, x := range f.LD {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("index: ALT row entry %d is %g; want nonnegative or +Inf", i, x)
		}
	}
	a := &altIndex{n: n, comp: p.comp, off: p.off, to: p.to, wt: p.wt, k: k, ld: f.LD}
	a.pool = sync.Pool{New: func() any { return &altWork{st: newSearchState(n)} }}
	return a, nil
}

// topoOrder returns a topological order of the upward DAG that places
// every edge's target before its source, or false when the claimed
// upward graph is cyclic. Rehydration uses it as the acyclicity check
// (contraction ranks are not serialized), and sealed hub labels list
// their entries in this order.
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
