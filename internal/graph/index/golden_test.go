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
// shows up as a different tie-break. The digests were last moved on
// purpose when the witness budget went from 48 to 200 and the priority
// gained its level term: the two grids went from 7,204 to 6,998 and
// from 7,345 to 7,116 upward edges, and from 31.98 to 31.82 and from
// 53.61 to 49.54 label entries per vertex; Complete(30) did not move.
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
			"d430eb3db81392257c97261e40ea3216866688fbced2daa0b579b6bca08473ab",
			"2aba917259a500e64ef9b91f6ed5a6a176a35c03681fed8ea8521ed5a3dd83fb",
		},
		{
			"Grid(40) 1+i%7", g40, cyclic(g40),
			"9a49c3202a72af55f136212f5a088bb50f53a322f7faf35fdc6a4ce9daa4a3f1",
			"ba54f1eb36e05d8b34258604b28bc4964ded5d2e5bcb21e78892a7b4e3c5b770",
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
