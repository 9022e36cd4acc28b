package dpgraph

import (
	"math/rand"
	"testing"
)

// TestOracleDistancesInto checks the allocation-free batch entry point:
// DistancesInto matches Distances answer for answer (including repeated
// sources and duplicate targets, which exercise the unindexed run/dedup
// path), and the error contract covers mismatched buffers and invalid
// pairs.
func TestOracleDistancesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	kinds := []string{"release", "treesssp", "apsd"}
	for _, kind := range kinds {
		for _, mode := range []QueryIndexMode{IndexOff, IndexCH, IndexHL} {
			g := topologyFor(kind, 24, rng)
			w := UniformRandomWeights(g, 0, 4, rng)
			oracle := sessionOracle(t, kind, g, w, 8, mode)
			n := oracle.N()
			pairs := make([]VertexPair, 0, 96)
			for i := 0; i < 96; i++ {
				s := rng.Intn(n)
				if i%3 != 0 && len(pairs) > 0 {
					s = pairs[len(pairs)-1].S // repeated sources hit the run/dedup path
				}
				pairs = append(pairs, VertexPair{S: s, T: rng.Intn(n)})
			}
			want, err := oracle.Distances(pairs)
			if err != nil {
				t.Fatalf("%s/%v Distances: %v", kind, mode, err)
			}
			got := make([]float64, len(pairs))
			for i := range got {
				got[i] = -1
			}
			if err := oracle.DistancesInto(pairs, got); err != nil {
				t.Fatalf("%s/%v DistancesInto: %v", kind, mode, err)
			}
			for i := range want {
				if !indexDistEqual(want[i], got[i]) {
					t.Fatalf("%s/%v pair %d: Distances=%g DistancesInto=%g", kind, mode, i, want[i], got[i])
				}
			}
			if err := oracle.DistancesInto(pairs, got[:len(got)-1]); err == nil {
				t.Fatalf("%s/%v: short out slice accepted", kind, mode)
			}
			bad := []VertexPair{{S: 0, T: n}}
			if err := oracle.DistancesInto(bad, make([]float64, 1)); err == nil {
				t.Fatalf("%s/%v: out-of-range pair accepted", kind, mode)
			}
		}
	}
}

// TestOracleDistancesIntoAllocs pins the zero-allocation contract of the
// synthetic batch path once its pooled scratch is warm.
func TestOracleDistancesIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race")
	}
	rng := rand.New(rand.NewSource(9))
	g := topologyFor("release", 32, rng)
	w := UniformRandomWeights(g, 0, 4, rng)
	for _, mode := range []QueryIndexMode{IndexOff, IndexHL} {
		oracle := sessionOracle(t, "release", g, w, 9, mode)
		n := oracle.N()
		pairs := make([]VertexPair, 64)
		for i := range pairs {
			pairs[i] = VertexPair{S: i % 4, T: (i*7 + 3) % n}
		}
		out := make([]float64, len(pairs))
		// Warm the pools (and, indexed, the result cache: steady state
		// for a cache-backed oracle means the keys already exist).
		for i := 0; i < 4; i++ {
			if err := oracle.DistancesInto(pairs, out); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := oracle.DistancesInto(pairs, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("mode %v: DistancesInto allocated %.1f times per batch, want 0", mode, allocs)
		}
	}
}
