package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// hierarchyDigests hashes the frozen hierarchy (rank, upOff, upTo,
// upWt) and the labels built from it (labOff, labHub, labDist), each
// array little-endian in that order.
func hierarchyDigests(c *chIndex, x *hlIndex) (chSum, hlSum string) {
	sum := func(arrays ...any) string {
		h := sha256.New()
		for _, a := range arrays {
			binary.Write(h, binary.LittleEndian, a)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	return sum(c.rank, c.upOff, c.upTo, c.upWt), sum(x.labOff, x.labHub, x.labDist)
}

// TestHierarchyGolden pins the exact hierarchy and labels of three small
// inputs. Contraction may get faster, but the order it contracts in, the
// shortcuts it keeps and the labels built from them are what a sealed
// artifact carries: a change that alters them on purpose must update
// these digests and report the label size it moves to. Grid with
// continuous random weights exercises ordinary contraction; the 1+i%7
// weights and the complete graph are full of equal-length paths, so a
// change to the witness searches' pop order or to the adjacency order
// shows up as a different tie-break.
func TestHierarchyGolden(t *testing.T) {
	cyclic := func(g *graph.Graph) []float64 {
		w := make([]float64, g.M())
		for i := range w {
			w[i] = float64(1 + i%7)
		}
		return w
	}
	g40, k30 := graph.Grid(40), graph.Complete(30)
	cases := []struct {
		name   string
		g      *graph.Graph
		w      []float64
		ch, hl string
	}{
		{
			"Grid(40) U[0.5,2.5] seed 1", g40, graph.UniformRandomWeights(g40, 0.5, 2.5, rand.New(rand.NewSource(1))),
			"6a1f8c8e3015ce762c16478ab666ce07d5e06558d6ff6f998cac3580fc650792",
			"1ebca038414d657190a51533e4a9e230f4ee937129f98e779264f8779cd9015b",
		},
		{
			"Grid(40) 1+i%7", g40, cyclic(g40),
			"1caad538a1b41ad0dca6f26b750891d9eda457ad6cc88d26bcb500eaac2d6167",
			"e0d4f7f4e150370c44a291509cf822da6352a599e399e6a33737ad4ae4f417c1",
		},
		{
			"Complete(30) 1+i%7", k30, cyclic(k30),
			"ed1a802ca78a80da9548d425782f7cac2ecdef4822816f62f0f625b61642eacb",
			"910c859470a7c659191d7ef8456f43619c6b1db406c00e850b06a41a439a3146",
		},
	}
	for _, tc := range cases {
		c, err := buildCH(prepare(tc.g, tc.w), false)
		if err != nil {
			t.Fatalf("%s: buildCH: %v", tc.name, err)
		}
		x, err := buildHL(c, 0)
		if err != nil {
			t.Fatalf("%s: buildHL: %v", tc.name, err)
		}
		if chSum, hlSum := hierarchyDigests(c, x); chSum != tc.ch || hlSum != tc.hl {
			t.Errorf("%s: digests changed (%d upward edges, %.2f label entries per vertex)\n ch: %s, want %s\n hl: %s, want %s",
				tc.name, len(c.upTo), float64(len(x.labHub))/float64(x.n), chSum, tc.ch, hlSum, tc.hl)
		}
	}
}
