package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	if !g.Connected() {
		t.Error("empty graph should be connected")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeIDsAreDense(t *testing.T) {
	g := New(4)
	for i := 0; i < 3; i++ {
		if id := g.AddEdge(i, i+1); id != i {
			t.Fatalf("edge %d got ID %d", i, id)
		}
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(2)
	for _, pair := range [][2]int{{-1, 0}, {0, 2}, {5, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d, %d) did not panic", pair[0], pair[1])
				}
			}()
			g.AddEdge(pair[0], pair[1])
		}()
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{ID: 0, From: 3, To: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other(5) did not panic")
		}
	}()
	e.Other(5)
}

func TestUndirectedAdjacencyBothDirections(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if g.Adj(1)[0].To != 0 {
		t.Error("reverse half-edge missing")
	}
}

func TestDirectedAdjacencyOneDirection(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	if g.Degree(0) != 1 || g.Degree(1) != 0 {
		t.Fatalf("directed degrees: %d %d", g.Degree(0), g.Degree(1))
	}
	if !g.Directed() {
		t.Error("Directed() = false")
	}
}

func TestSelfLoopAdjacencyOnce(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	if g.Degree(0) != 1 {
		t.Fatalf("self-loop degree = %d, want 1", g.Degree(0))
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	a := g.AddEdge(0, 1)
	b := g.AddEdge(0, 1)
	c := g.AddEdge(1, 0)
	ids := g.EdgeIDsBetween(0, 1)
	if len(ids) != 3 || ids[0] != a || ids[1] != b || ids[2] != c {
		t.Fatalf("EdgeIDsBetween = %v", ids)
	}
	if g.IsSimple() {
		t.Error("multigraph reported simple")
	}
}

func TestHasEdgeBetween(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if !g.HasEdgeBetween(0, 1) || !g.HasEdgeBetween(1, 0) {
		t.Error("undirected edge not visible both ways")
	}
	if g.HasEdgeBetween(0, 2) || g.HasEdgeBetween(-1, 0) || g.HasEdgeBetween(0, 9) {
		t.Error("phantom edges")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone not independent: %d %d", g.M(), c.M())
	}
}

func TestReverseDirected(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	r := g.Reverse()
	if e := r.Edge(0); e.From != 1 || e.To != 0 {
		t.Fatalf("reversed edge 0 = %v", e)
	}
	if !r.Directed() {
		t.Error("reverse lost directedness")
	}
}

func TestUndirectedCopy(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	u := g.Undirected()
	if u.Directed() {
		t.Error("Undirected() still directed")
	}
	if u.Degree(1) != 1 {
		t.Error("undirected copy missing reverse adjacency")
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	cs := g.Components()
	if cs.Count != 3 {
		t.Fatalf("components = %d, want 3", cs.Count)
	}
	if cs.Label[0] != cs.Label[1] || cs.Label[3] != cs.Label[4] || cs.Label[0] == cs.Label[3] {
		t.Errorf("labels = %v", cs.Label)
	}
	vs := cs.Vertices(cs.Label[3])
	if len(vs) != 2 || vs[0] != 3 || vs[1] != 4 {
		t.Errorf("Vertices = %v", vs)
	}
}

func TestComponentsDirectedUsesUnderlyingGraph(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(1, 0) // only in-edge for 0
	g.AddEdge(1, 2)
	if cs := g.Components(); cs.Count != 1 {
		t.Fatalf("directed weak components = %d, want 1", cs.Count)
	}
}

func TestConnected(t *testing.T) {
	if !Path(5).Connected() {
		t.Error("path not connected")
	}
	g := New(3)
	g.AddEdge(0, 1)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestIsSimple(t *testing.T) {
	if !Path(4).IsSimple() {
		t.Error("path not simple")
	}
	g := New(2)
	g.AddEdge(0, 0)
	if g.IsSimple() {
		t.Error("self-loop graph simple")
	}
}

func TestValidatePath(t *testing.T) {
	g := Path(4) // edges 0:(0,1) 1:(1,2) 2:(2,3)
	if err := g.ValidatePath(0, 3, []int{0, 1, 2}); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := g.ValidatePath(3, 0, []int{2, 1, 0}); err != nil {
		t.Errorf("reversed traversal rejected: %v", err)
	}
	if err := g.ValidatePath(0, 3, []int{0, 2}); err == nil {
		t.Error("disconnected walk accepted")
	}
	if err := g.ValidatePath(0, 2, []int{0, 1, 2}); err == nil {
		t.Error("wrong endpoint accepted")
	}
	if err := g.ValidatePath(0, 1, []int{99}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestValidatePathDirected(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if err := g.ValidatePath(0, 2, []int{0, 1}); err != nil {
		t.Errorf("forward path rejected: %v", err)
	}
	if err := g.ValidatePath(2, 0, []int{1, 0}); err == nil {
		t.Error("backward traversal of directed edges accepted")
	}
}

func TestPathVertices(t *testing.T) {
	g := Path(4)
	vs := g.PathVertices(0, []int{0, 1, 2})
	want := []int{0, 1, 2, 3}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("PathVertices = %v", vs)
		}
	}
	if got := g.PathVertices(2, nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("empty path vertices = %v", got)
	}
}

func TestPathWeight(t *testing.T) {
	w := []float64{1, 2, 4}
	if got := PathWeight(w, []int{0, 2}); got != 5 {
		t.Fatalf("PathWeight = %g", got)
	}
	if got := PathWeight(w, nil); got != 0 {
		t.Fatalf("empty PathWeight = %g", got)
	}
}

func TestL1DistanceAndNeighboring(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1.5, 2, 2.6}
	if got := L1Distance(a, b); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("L1 = %g", got)
	}
	if !Neighboring(a, b) {
		t.Error("0.9-distant vectors not neighboring")
	}
	if Neighboring(a, []float64{3, 2, 3}) {
		t.Error("2-distant vectors neighboring")
	}
}

func TestL1DistanceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	L1Distance([]float64{1}, []float64{1, 2})
}

func TestUniformAndClampWeights(t *testing.T) {
	g := Path(4)
	w := UniformWeights(g, 2.5)
	if len(w) != 3 || w[0] != 2.5 || w[2] != 2.5 {
		t.Fatalf("UniformWeights = %v", w)
	}
	c := ClampWeights([]float64{-1, 0.5, 9}, 0, 1)
	if c[0] != 0 || c[1] != 0.5 || c[2] != 1 {
		t.Fatalf("ClampWeights = %v", c)
	}
}

func TestTotalWeight(t *testing.T) {
	if TotalWeight([]float64{1, 2, 3.5}) != 6.5 {
		t.Fatal("TotalWeight wrong")
	}
}

// Property: L1Distance is a metric-like form: symmetric, nonnegative,
// zero iff equal (on finite inputs).
func TestL1DistanceProperties(t *testing.T) {
	f := func(raw []float64) bool {
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			a[i] = x
			b[i] = x/2 + 1
		}
		d1 := L1Distance(a, b)
		d2 := L1Distance(b, a)
		return d1 == d2 && d1 >= 0 && L1Distance(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Components partitions the vertex set and Connected agrees
// with Count == 1 on random graphs.
func TestComponentsPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		g := ErdosRenyi(n, rng.Float64()*0.15, rng)
		cs := g.Components()
		if cs.Count < 1 || cs.Count > n {
			t.Fatalf("component count %d for n=%d", cs.Count, n)
		}
		seen := make([]int, cs.Count)
		for _, l := range cs.Label {
			if l < 0 || l >= cs.Count {
				t.Fatalf("bad label %d", l)
			}
			seen[l]++
		}
		total := 0
		for _, s := range seen {
			if s == 0 {
				t.Fatal("empty component label")
			}
			total += s
		}
		if total != n {
			t.Fatalf("labels cover %d of %d vertices", total, n)
		}
		if g.Connected() != (cs.Count == 1) {
			t.Fatal("Connected disagrees with Components")
		}
		// Every edge joins same-component endpoints.
		for _, e := range g.Edges() {
			if cs.Label[e.From] != cs.Label[e.To] {
				t.Fatal("edge crosses components")
			}
		}
	}
}
