package index

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// benchGraph is the ≥100k-edge grid the serving benchmarks run on
// (2 * 225 * 224 = 100,800 edges).
func benchGraph(b *testing.B) (*graph.Graph, []float64) {
	b.Helper()
	g := graph.Grid(225)
	rng := rand.New(rand.NewSource(1))
	return g, graph.UniformRandomWeights(g, 0.5, 2.5, rng)
}

func BenchmarkBuild(b *testing.B) {
	g, w := benchGraph(b)
	for _, m := range []Mode{CH, ALT, HL} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, w, Options{Mode: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildHL times label generation alone: the hierarchy of the
// same grid is built once, outside the timer. scripts/check_perf_guards.sh
// gate #7 holds it to a multiple of BenchmarkFullDijkstra.
func BenchmarkBuildHL(b *testing.B) {
	g, w := benchGraph(b)
	ch, err := buildCH(prepare(g, w), false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var x *hlIndex
	for i := 0; i < b.N; i++ {
		if x, err = buildHL(ch, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(x.labHub))/float64(x.n), "entries/vertex")
}

// BenchmarkFullDijkstra times one full single-source Dijkstra over the
// same grid: the yardstick gate #7 measures label generation against,
// since it shares the host's speed but none of the index's code.
func BenchmarkFullDijkstra(b *testing.B) {
	g, w := benchGraph(b)
	n := g.N()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Dijkstra(g, w, (i*7919)%n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexDistance(b *testing.B) {
	g, w := benchGraph(b)
	n := g.N()
	b.Run("dijkstra", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.QueryDistanceTrusted(g, w, (i*7919)%n, (i*104729+1)%n); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, m := range []Mode{CH, ALT, HL} {
		idx, err := Build(g, w, Options{Mode: m})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.String(), func(b *testing.B) {
			idx.Distance(0, n-1) // warm the workspace pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Distance((i*7919)%n, (i*104729+1)%n)
			}
		})
		if m != HL {
			continue
		}
		// hl-depot is the shape of a batch workload's depot request:
		// one source to 256 targets, pairs oriented s < t as the oracle
		// passes them, so the source arrives in either position.
		b.Run("hl-depot", func(b *testing.B) {
			idx.Distance(0, n-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, t := ((i/256)*7919)%n, (i*104729+1)%n
				if s > t {
					s, t = t, s
				}
				idx.Distance(s, t)
			}
		})
	}
}

// BenchmarkPairCache times one result-cache lookup: hit reads pairs
// stored beforehand, miss looks up and then stores pairs never seen.
// scripts/check_perf_guards.sh gate #7 holds both to 0 allocs/op.
func BenchmarkPairCache(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c := NewPairCache(0)
		var keys []int
		for k := 0; k < 4096; k++ {
			c.Put(k, k+1, float64(k))
		}
		for k := 0; k < 4096; k++ {
			if _, ok := c.Get(k, k+1); ok { // a later pair may share the slot
				keys = append(keys, k)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			if _, ok := c.Get(k, k+1); !ok {
				b.Fatalf("Get(%d, %d) missed", k, k+1)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := NewPairCache(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get(i, i+1); ok {
				b.Fatalf("Get(%d, %d) hit before its Put", i, i+1)
			}
			c.Put(i, i+1, float64(i))
		}
	})
}

// BenchmarkHLSources times the two halves of sealing hub labels as
// sources on the same grid: deriving them from the built labels and
// their hierarchy (derive, on the seal path), and rebuilding the labels
// from them (rebuild, on the unseal path). It reports the sources'
// bytes per label entry.
func BenchmarkHLSources(b *testing.B) {
	g, w := benchGraph(b)
	idx, err := Build(g, w, Options{Mode: HL})
	if err != nil {
		b.Fatal(err)
	}
	f, err := Export(idx)
	if err != nil {
		b.Fatal(err)
	}
	lens, src, err := HLSources(f)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("derive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := HLSources(f); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(src))/float64(len(f.LabHub)), "B/entry")
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			re := &FlatIndex{Kind: "hl", UpOff: f.UpOff, UpTo: f.UpTo, UpWt: f.UpWt}
			if err := RebuildLabels(re, lens, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}
