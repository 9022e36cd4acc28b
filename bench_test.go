// Package repro's root benchmarks regenerate every experiment indexed in
// EXPERIMENTS.md (one Benchmark per table/figure). Each benchmark
// iteration runs the experiment's full Quick sweep, so ns/op measures the
// cost of regenerating that table. Run the full-size tables with
// cmd/experiments instead:
//
//	go test -bench=. -benchmem            # all experiments, quick sweeps
//	go run ./cmd/experiments              # full-size tables
//
// The BenchmarkMechanism*/BenchmarkOracle* group at the bottom measures
// the serving split instead: an eager budget-charging mechanism call per
// query versus queries answered from one materialized release's
// DistanceOracle (see EXPERIMENTS.md, "Serving benchmarks"), and
// BenchmarkFillLaplace measures the vectorized NoiseSource layer per
// draw (EXPERIMENTS.md, E19).
package repro_test

import (
	"bytes"
	"testing"

	"repro/dpgraph"
	"repro/internal/dp"
	"repro/internal/experiment"
	"repro/internal/snapshot"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiment.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(experiment.Config{Seed: int64(i + 1), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// Theorem 4.1 / Algorithm 1: single-source tree distances.
func BenchmarkE01_TreeSingleSource(b *testing.B) { benchExperiment(b, "E1") }

// Theorem 4.2: all-pairs tree distances.
func BenchmarkE02_TreeAllPairs(b *testing.B) { benchExperiment(b, "E2") }

// Theorem A.1: path-graph hub hierarchy.
func BenchmarkE03_PathHierarchy(b *testing.B) { benchExperiment(b, "E3") }

// Theorems 4.5 + 4.3 / Algorithm 2: bounded-weight graphs, approximate DP.
func BenchmarkE04_BoundedWeightApprox(b *testing.B) { benchExperiment(b, "E4") }

// Theorems 4.6 + 4.3: bounded-weight graphs, pure DP.
func BenchmarkE05_BoundedWeightPure(b *testing.B) { benchExperiment(b, "E5") }

// Theorem 4.7: grid coverings.
func BenchmarkE06_GridCovering(b *testing.B) { benchExperiment(b, "E6") }

// Theorem 5.5 / Algorithm 3: path error vs hop count.
func BenchmarkE07_PathErrorVsHops(b *testing.B) { benchExperiment(b, "E7") }

// Corollary 5.6: worst-case path error.
func BenchmarkE08_PathErrorWorstCase(b *testing.B) { benchExperiment(b, "E8") }

// Theorem 5.1 / Lemma 5.2: shortest-path reconstruction attack.
func BenchmarkE09_PathReconstruction(b *testing.B) { benchExperiment(b, "E9") }

// Theorem B.3: private almost-minimum spanning tree.
func BenchmarkE10_PrivateMST(b *testing.B) { benchExperiment(b, "E10") }

// Theorem B.1 / Lemma B.2: MST reconstruction attack.
func BenchmarkE11_MSTReconstruction(b *testing.B) { benchExperiment(b, "E11") }

// Theorem B.6: private low-weight perfect matching.
func BenchmarkE12_PrivateMatching(b *testing.B) { benchExperiment(b, "E12") }

// Theorem B.4 / Lemma B.5: matching reconstruction attack.
func BenchmarkE13_MatchingReconstruction(b *testing.B) { benchExperiment(b, "E13") }

// Section 1.1 motivation: private navigation on a synthetic city.
func BenchmarkE14_TrafficNavigation(b *testing.B) { benchExperiment(b, "E14") }

// Section 1.2: error vs influence scale.
func BenchmarkE15_SensitivityScaling(b *testing.B) { benchExperiment(b, "E15") }

// Lemma 4.4 ablation: covering construction quality.
func BenchmarkE16_CoveringAblation(b *testing.B) { benchExperiment(b, "E16") }

// Remark after Theorem 4.6: single-source release strategies.
func BenchmarkE17_SingleSource(b *testing.B) { benchExperiment(b, "E17") }

// Appendix A / [DNPR10]: continual counter equals path distances.
func BenchmarkE18_ContinualCounter(b *testing.B) { benchExperiment(b, "E18") }

// Figure 1: Algorithm 1 tree partition.
func BenchmarkF01_TreePartition(b *testing.B) { benchExperiment(b, "F1") }

// Figure 2: shortest-path lower-bound gadget.
func BenchmarkF02_PathGadget(b *testing.B) { benchExperiment(b, "F2") }

// Figure 3: MST and matching lower-bound gadgets.
func BenchmarkF03_MSTMatchingGadgets(b *testing.B) { benchExperiment(b, "F3") }

// --- Serving benchmarks: release once / query many ---------------------
//
// BenchmarkMechanismDistance is the eager path (one budget-charging
// mechanism call per answered query); the BenchmarkOracleDistance
// sub-benchmarks answer the same query from a materialized release's
// DistanceOracle. The tree/hierarchy/table oracles must report
// 0 allocs/op — scripts/check_oracle_allocs.sh enforces that in CI.

func benchSession(b *testing.B, g *dpgraph.Graph) *dpgraph.PrivateGraph {
	b.Helper()
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%7)/7
	}
	pg, err := dpgraph.New(g, dpgraph.PrivateWeights(w),
		dpgraph.WithEpsilon(1), dpgraph.WithDeterministicSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	return pg
}

// BenchmarkMechanismDistance answers each query with a fresh Laplace
// mechanism call: every iteration pays a budget charge, a receipt
// append, and a full shortest-path computation.
func BenchmarkMechanismDistance(b *testing.B) {
	g := dpgraph.Grid(16)
	pg := benchSession(b, g)
	n := g.N()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pg.Distance(i%n, (i*13+1)%n); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOracleDistance measures one point query against a materialized
// oracle.
func benchOracleDistance(b *testing.B, o dpgraph.DistanceOracle) {
	b.Helper()
	n := o.N()
	if _, err := o.Distance(0, n-1); err != nil { // warm pools before measuring
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Distance(i%n, (i*13+1)%n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOracleDistance(b *testing.B) {
	b.Run("tree", func(b *testing.B) {
		rel, err := benchSession(b, dpgraph.BalancedBinaryTree(1023)).TreeAllPairs()
		if err != nil {
			b.Fatal(err)
		}
		benchOracleDistance(b, rel.Oracle())
	})
	b.Run("hierarchy", func(b *testing.B) {
		rel, err := benchSession(b, dpgraph.PathGraph(1024)).PathHierarchy(2)
		if err != nil {
			b.Fatal(err)
		}
		benchOracleDistance(b, rel.Oracle())
	})
	b.Run("table", func(b *testing.B) {
		pg := benchSession(b, dpgraph.Grid(16))
		rel, err := pg.AllPairsDistances()
		if err != nil {
			b.Fatal(err)
		}
		benchOracleDistance(b, rel.Oracle())
	})
	b.Run("synthetic", func(b *testing.B) {
		rel, err := benchSession(b, dpgraph.Grid(16)).Release()
		if err != nil {
			b.Fatal(err)
		}
		benchOracleDistance(b, rel.Oracle())
	})
	// The indexed-serving group: one ≥100k-edge release (Grid(225) has
	// 2*225*224 = 100,800 edges), served unindexed (per-query Dijkstra)
	// versus through the contraction-hierarchy, landmark, and hub-label
	// indexes. scripts/check_perf_guards.sh asserts the CH oracle is
	// ≥10x faster than the unindexed one and the hub-label oracle ≥5x
	// faster than CH on this workload.
	for _, mode := range []dpgraph.QueryIndexMode{dpgraph.IndexOff, dpgraph.IndexCH, dpgraph.IndexALT, dpgraph.IndexHL} {
		name := "synthetic-100k"
		if mode != dpgraph.IndexOff {
			name += "-" + mode.String()
		}
		b.Run(name, func(b *testing.B) {
			rel, err := benchSession(b, dpgraph.Grid(225)).Release()
			if err != nil {
				b.Fatal(err)
			}
			oracle, err := rel.IndexedOracle(mode)
			if err != nil {
				b.Fatal(err)
			}
			benchOracleDistance(b, oracle)
		})
	}
}

// --- Throughput benchmarks: the vectorized noise layer -----------------
//
// BenchmarkFillLaplace measures the block sampler per draw; both
// sub-benchmarks must report 0 allocs/op (scripts/check_perf_guards.sh
// enforces that in CI).

func BenchmarkFillLaplace(b *testing.B) {
	sources := []struct {
		name string
		src  dp.NoiseSource
	}{
		{"crypto", dp.NewCryptoNoise()},
		{"seeded", dp.NewSeededNoise(1)},
	}
	dst := make([]float64, 1<<16)
	for _, s := range sources {
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(8 << 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.src.FillLaplace(1, dst)
			}
		})
	}
}

// --- Snapshot benchmarks: sealed-release restore ------------------------
//
// BenchmarkSnapshotRestore compares the two ways a replica can start
// serving the same ≥100k-edge indexed release: re-materializing it from
// the private weights (budget charge + noise + contraction hierarchy)
// versus unsealing a snapshot artifact (decode + index rehydration,
// zero budget). All sub-benchmarks end with one answered query, so
// ns/op is the restore-to-first-answer latency. unseal restores the CH
// release, unseal-hl the same release indexed with hub labels, which
// it rebuilds from their sealed sources; unseal-hl also reports the
// artifact's bytes per label entry (artifact-B/entry).
// scripts/check_perf_guards.sh holds unseal to ≤3x one full Dijkstra
// over the same grid (BenchmarkFullDijkstra in internal/graph/index),
// and unseal-hl's time and size to their own calibrated bounds.
func BenchmarkSnapshotRestore(b *testing.B) {
	g := dpgraph.Grid(225) // 2*225*224 = 100,800 edges
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%7)/7
	}
	materialize := func(mode dpgraph.QueryIndexMode) (dpgraph.DistanceOracle, dpgraph.Result) {
		pg, err := dpgraph.New(g, dpgraph.PrivateWeights(w),
			dpgraph.WithEpsilon(1), dpgraph.WithDeterministicSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		rel, err := pg.Release()
		if err != nil {
			b.Fatal(err)
		}
		oracle, err := rel.IndexedOracle(mode)
		if err != nil {
			b.Fatal(err)
		}
		return oracle, rel
	}
	firstQuery := func(o dpgraph.DistanceOracle) {
		if _, err := o.Distance(0, g.N()-1); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("rematerialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracle, _ := materialize(dpgraph.IndexCH)
			firstQuery(oracle)
		}
	})
	unseal := func(b *testing.B, mode dpgraph.QueryIndexMode) []byte {
		oracle, rel := materialize(mode)
		var buf bytes.Buffer
		if err := dpgraph.Seal(&buf, oracle, rel); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sealed, err := dpgraph.Unseal(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			firstQuery(sealed.Oracle())
		}
		return data
	}
	b.Run("unseal", func(b *testing.B) { unseal(b, dpgraph.IndexCH) })
	b.Run("unseal-hl", func(b *testing.B) {
		data := unseal(b, dpgraph.IndexHL)
		b.StopTimer()
		art, _, err := snapshot.Read(bytes.NewReader(data), snapshot.ReadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(data))/float64(len(art.HLLabHub)), "artifact-B/entry")
	})
}

// BenchmarkOracleBatch answers a 256-pair workload per iteration through
// the batch interface (the synthetic oracle groups the batch by source).
func BenchmarkOracleBatch(b *testing.B) {
	families := []struct {
		name   string
		oracle func(b *testing.B) dpgraph.DistanceOracle
	}{
		{"tree", func(b *testing.B) dpgraph.DistanceOracle {
			rel, err := benchSession(b, dpgraph.BalancedBinaryTree(1023)).TreeAllPairs()
			if err != nil {
				b.Fatal(err)
			}
			return rel.Oracle()
		}},
		{"synthetic", func(b *testing.B) dpgraph.DistanceOracle {
			rel, err := benchSession(b, dpgraph.Grid(16)).Release()
			if err != nil {
				b.Fatal(err)
			}
			return rel.Oracle()
		}},
	}
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			o := f.oracle(b)
			n := o.N()
			pairs := make([]dpgraph.VertexPair, 256)
			for i := range pairs {
				pairs[i] = dpgraph.VertexPair{S: (i * 31) % n, T: (i*17 + 3) % n}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Distances(pairs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
