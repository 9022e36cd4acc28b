package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// exportGrid builds the shared test topology: a side x side grid with
// deterministic pseudo-random weights.
func exportGrid(side int) (*graph.Graph, []float64) {
	g := graph.New(side * side)
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				g.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < side {
				g.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + 9*rng.Float64()
	}
	return g, w
}

// TestExportRehydrateEquivalence round-trips each index kind through
// its flat form and requires bit-identical answers from the rehydrated
// index across a query sweep.
func TestExportRehydrateEquivalence(t *testing.T) {
	g, w := exportGrid(12)
	for _, mode := range []Mode{CH, ALT, HL} {
		t.Run(mode.String(), func(t *testing.T) {
			orig, err := Build(g, w, Options{Mode: mode})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			flat, err := Export(orig)
			if err != nil {
				t.Fatalf("Export: %v", err)
			}
			if flat.Kind != orig.Kind() {
				t.Fatalf("flat kind %q, index kind %q", flat.Kind, orig.Kind())
			}
			re, err := Rehydrate(g, w, flat)
			if err != nil {
				t.Fatalf("Rehydrate: %v", err)
			}
			rng := rand.New(rand.NewSource(99))
			for q := 0; q < 500; q++ {
				s, u := rng.Intn(g.N()), rng.Intn(g.N())
				a, b := orig.Distance(s, u), re.Distance(s, u)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("query (%d,%d): original %v, rehydrated %v", s, u, a, b)
				}
			}
		})
	}
}

// TestRehydrateRejectsMalformed feeds structurally broken flat arrays
// and requires a typed error, never a panic or a working index.
func TestRehydrateRejectsMalformed(t *testing.T) {
	g, w := exportGrid(4)
	chFlat := func() *FlatIndex {
		idx, err := Build(g, w, Options{Mode: CH})
		if err != nil {
			t.Fatalf("Build ch: %v", err)
		}
		f, err := Export(idx)
		if err != nil {
			t.Fatalf("Export ch: %v", err)
		}
		// Copy so mutations do not leak into other subtests.
		return &FlatIndex{
			Kind:  f.Kind,
			UpOff: append([]int32(nil), f.UpOff...),
			UpTo:  append([]int32(nil), f.UpTo...),
			UpWt:  append([]float64(nil), f.UpWt...),
		}
	}
	altFlat := func() *FlatIndex {
		idx, err := Build(g, w, Options{Mode: ALT})
		if err != nil {
			t.Fatalf("Build alt: %v", err)
		}
		f, err := Export(idx)
		if err != nil {
			t.Fatalf("Export alt: %v", err)
		}
		return &FlatIndex{
			Kind:      f.Kind,
			Landmarks: f.Landmarks,
			LD:        append([]float64(nil), f.LD...),
		}
	}
	hlFlat := func() *FlatIndex {
		idx, err := Build(g, w, Options{Mode: HL})
		if err != nil {
			t.Fatalf("Build hl: %v", err)
		}
		f, err := Export(idx)
		if err != nil {
			t.Fatalf("Export hl: %v", err)
		}
		return &FlatIndex{
			Kind:    f.Kind,
			LabOff:  append([]int64(nil), f.LabOff...),
			LabHub:  append([]int32(nil), f.LabHub...),
			LabDist: append([]float64(nil), f.LabDist...),
		}
	}
	cases := map[string]func() *FlatIndex{
		"unknown-kind":      func() *FlatIndex { f := chFlat(); f.Kind = "quadtree"; return f },
		"short-offsets":     func() *FlatIndex { f := chFlat(); f.UpOff = f.UpOff[:3]; return f },
		"nonzero-first-off": func() *FlatIndex { f := chFlat(); f.UpOff[0] = 1; return f },
		"decreasing-off":    func() *FlatIndex { f := chFlat(); f.UpOff[1] = f.UpOff[len(f.UpOff)-1] + 5; return f },
		"target-oob":        func() *FlatIndex { f := chFlat(); f.UpTo[0] = int32(g.N()); return f },
		"negative-ch-wt":    func() *FlatIndex { f := chFlat(); f.UpWt[0] = -2; return f },
		"nan-ch-wt":         func() *FlatIndex { f := chFlat(); f.UpWt[0] = math.NaN(); return f },
		"cyclic-up": func() *FlatIndex {
			f := chFlat()
			// Redirect vertex 0's first upward edge back at itself: a
			// self-loop is the smallest cycle the sweep order must refuse.
			if f.UpOff[1] == f.UpOff[0] {
				t.Fatal("vertex 0 has no upward edge")
			}
			f.UpTo[f.UpOff[0]] = 0
			return f
		},
		"too-many-landmarks": func() *FlatIndex {
			f := altFlat()
			f.Landmarks = MaxLandmarks + 1
			return f
		},
		"short-ld-rows":            func() *FlatIndex { f := altFlat(); f.LD = f.LD[:len(f.LD)-1]; return f },
		"negative-ld":              func() *FlatIndex { f := altFlat(); f.LD[0] = -1; return f },
		"nan-ld":                   func() *FlatIndex { f := altFlat(); f.LD[0] = math.NaN(); return f },
		"hl-short-lab-off":         func() *FlatIndex { f := hlFlat(); f.LabOff = f.LabOff[:3]; return f },
		"hl-nonzero-first-lab-off": func() *FlatIndex { f := hlFlat(); f.LabOff[0] = 1; return f },
		"hl-decreasing-lab-off": func() *FlatIndex {
			f := hlFlat()
			f.LabOff[1] = f.LabOff[len(f.LabOff)-1] + 5
			return f
		},
		"hl-short-arena": func() *FlatIndex { f := hlFlat(); f.LabHub = f.LabHub[:len(f.LabHub)-1]; return f },
		"hl-hub-oob":     func() *FlatIndex { f := hlFlat(); f.LabHub[0] = int32(g.N()); return f },
		"hl-unsorted-hubs": func() *FlatIndex {
			f := hlFlat()
			// Find a vertex with >= 2 entries and swap its first two hubs.
			for v := 0; v < g.N(); v++ {
				if f.LabOff[v+1]-f.LabOff[v] >= 2 {
					i := f.LabOff[v]
					f.LabHub[i], f.LabHub[i+1] = f.LabHub[i+1], f.LabHub[i]
					return f
				}
			}
			t.Fatal("no vertex with a 2-entry label")
			return f
		},
		"hl-negative-dist": func() *FlatIndex { f := hlFlat(); f.LabDist[0] = -1; return f },
		"hl-nan-dist":      func() *FlatIndex { f := hlFlat(); f.LabDist[0] = math.NaN(); return f },
		"hl-inf-dist":      func() *FlatIndex { f := hlFlat(); f.LabDist[0] = math.Inf(1); return f },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			idx, err := Rehydrate(g, w, build())
			if err == nil {
				t.Fatalf("Rehydrate accepted malformed arrays (got index %v)", idx.Kind())
			}
			if idx != nil {
				t.Fatal("Rehydrate returned an index alongside an error")
			}
		})
	}
}

// TestRehydrateRejectsBadContext validates the (g, w) side.
func TestRehydrateRejectsBadContext(t *testing.T) {
	g, w := exportGrid(4)
	idx, err := Build(g, w, Options{Mode: CH})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Export(idx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rehydrate(g, w[:len(w)-1], f); err == nil {
		t.Fatal("short weight vector accepted")
	}
	bad := append([]float64(nil), w...)
	bad[0] = -1
	if _, err := Rehydrate(g, bad, f); err == nil {
		t.Fatal("negative weight accepted")
	}
	dg := graph.NewDirected(2)
	dg.AddEdge(0, 1)
	if _, err := Rehydrate(dg, []float64{1}, f); err == nil {
		t.Fatal("directed topology accepted")
	}
}
