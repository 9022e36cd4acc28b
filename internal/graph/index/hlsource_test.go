package index

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// sourcesRoundTrip derives x's sources and rebuilds labels from them
// over a copy of its hierarchy, returning the sources and the rebuilt
// flat index.
func sourcesRoundTrip(t *testing.T, x *hlIndex) ([]uint32, []byte, *FlatIndex) {
	t.Helper()
	f, err := Export(x)
	if err != nil {
		t.Fatal(err)
	}
	lens, src, err := HLSources(f)
	if err != nil {
		t.Fatalf("HLSources: %v", err)
	}
	re := &FlatIndex{Kind: "hl", UpOff: slices.Clone(f.UpOff), UpTo: slices.Clone(f.UpTo), UpWt: slices.Clone(f.UpWt)}
	if err := RebuildLabels(re, lens, src); err != nil {
		t.Fatalf("RebuildLabels: %v", err)
	}
	return lens, src, re
}

// TestHLSourcesRebuildBitForBit: labels rebuilt from their sources
// equal the built labels bit for bit, arena layout included; deriving
// the sources again from the rebuilt labels gives the same bytes, so a
// replica re-seals what the origin sealed; and the rebuilt index
// rehydrates without a second scan and answers like the original.
func TestHLSourcesRebuildBitForBit(t *testing.T) {
	graphs := hlTestGraphs(t)
	g, w := exportGrid(12)
	idx, err := Build(g, w, Options{Mode: HL})
	if err != nil {
		t.Fatal(err)
	}
	graphs["grid-12"] = idx.(*hlIndex)
	for name, x := range graphs {
		t.Run(name, func(t *testing.T) {
			lens, src, re := sourcesRoundTrip(t, x)
			if !slices.Equal(re.LabOff, x.labOff) || !slices.Equal(re.LabHub, x.labHub) {
				t.Fatal("rebuilt label offsets or hubs differ from the built ones")
			}
			for i, d := range x.labDist {
				if math.Float64bits(re.LabDist[i]) != math.Float64bits(d) {
					t.Fatalf("rebuilt distance %d is %v, built %v", i, re.LabDist[i], d)
				}
			}
			if per := float64(len(src)) / float64(len(x.labHub)); per < 2 || per > 3 {
				t.Errorf("%.2f source bytes per label entry, want between 2 and 3", per)
			}
			lens2, src2, err := HLSources(re)
			if err != nil {
				t.Fatalf("HLSources of the rebuilt labels: %v", err)
			}
			if !slices.Equal(lens, lens2) || !bytes.Equal(src, src2) {
				t.Fatal("the rebuilt labels derive different sources")
			}
			if !re.rebuilt {
				t.Fatal("RebuildLabels did not mark its result validated")
			}
		})
	}

	// Through Rehydrate, over the graph the labels belong to.
	_, _, re := sourcesRoundTrip(t, graphs["grid-12"])
	rx, err := Rehydrate(g, w, re)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.N(); s += 7 {
		for u := 0; u < g.N(); u += 5 {
			if a, b := idx.Distance(s, u), rx.Distance(s, u); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("Distance(%d,%d): built %v, rebuilt %v", s, u, a, b)
			}
		}
	}
	// A rebuilt flat index names its vertex count; another graph's
	// does not fit.
	g2, w2 := exportGrid(11)
	if _, err := Rehydrate(g2, w2, re); err == nil {
		t.Fatal("Rehydrate took labels rebuilt for 144 vertices over a 121-vertex graph")
	}
}

// TestHLSourcesRefuseForeignLabels: an entry that no upward edge plus
// an entry of a higher label reproduces bit for bit has no source, and
// HLSources says so instead of sealing something that rebuilds other
// labels.
func TestHLSourcesRefuseForeignLabels(t *testing.T) {
	x := hlTestGraphs(t)["grid-16"]
	f, err := Export(x)
	if err != nil {
		t.Fatal(err)
	}
	dist := slices.Clone(f.LabDist)
	v := len(f.LabOff) / 2
	i := f.LabOff[v]
	for f.LabHub[i] == int32(v) {
		i++ // not the self entry
	}
	dist[i] = math.Nextafter(dist[i], math.Inf(1))
	f.LabDist = dist
	if _, _, err := HLSources(f); err == nil {
		t.Fatal("HLSources sealed a label entry one ulp off its hierarchy")
	}
	if _, _, err := HLSources(&FlatIndex{Kind: "hl", LabOff: f.LabOff, LabHub: f.LabHub, LabDist: f.LabDist}); err == nil {
		t.Fatal("HLSources sealed labels without a hierarchy")
	}
}

// FuzzRebuildLabels feeds RebuildLabels an arbitrary upward CSR, label
// lengths and source bytes. It must fail with ErrInvalidSources or
// return labels that meet the arena invariants: hubs in range and
// strictly ascending, distances finite and nonnegative, no more
// entries than source bytes. Accepted labels must also derive sources
// that rebuild them unchanged.
//
// The CSR is spelled one vertex at a time as an upward degree byte
// followed by that many (target, weight) byte pairs; a target byte is
// taken modulo n, and a weight byte b is b/8, except 255, which is
// +Inf. Label lengths are one byte per vertex; missing bytes read 0.
func FuzzRebuildLabels(f *testing.F) {
	for _, side := range []int{2, 3, 4} {
		g := graph.Grid(side)
		w := make([]float64, g.M())
		for i := range w {
			w[i] = float64(1+(i*5)%11) / 8
		}
		idx, err := Build(g, w, Options{Mode: HL})
		if err != nil {
			f.Fatal(err)
		}
		flat, _ := Export(idx)
		lens, src, err := HLSources(flat)
		if err != nil {
			f.Fatal(err)
		}
		var csr, lb []byte
		for v := 0; v < g.N(); v++ {
			csr = append(csr, byte(flat.UpOff[v+1]-flat.UpOff[v]))
			for i := flat.UpOff[v]; i < flat.UpOff[v+1]; i++ {
				csr = append(csr, byte(flat.UpTo[i]), byte(flat.UpWt[i]*8))
			}
			lb = append(lb, byte(lens[v]))
		}
		f.Add(uint8(g.N()), csr, lb, src)
		f.Add(uint8(g.N()), csr, lb, src[:len(src)-1])
	}
	f.Add(uint8(2), []byte{1, 1, 255, 0}, []byte{2, 1}, []byte{0, 0, 1, 0, 0, 0})
	f.Add(uint8(3), []byte{1, 1, 8, 1, 0, 8}, []byte{1, 2, 1}, []byte{0, 0, 0, 0, 1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, nb uint8, csr, lb, src []byte) {
		n := int(nb%32) + 1
		flat := &FlatIndex{Kind: "hl", UpOff: make([]int32, n+1)}
		at := 0
		for v := 0; v < n; v++ {
			deg := 0
			if at < len(csr) {
				deg = int(csr[at])
				at++
			}
			for ; deg > 0 && at+1 < len(csr); deg-- {
				wt := float64(csr[at+1]) / 8
				if csr[at+1] == 255 {
					wt = math.Inf(1)
				}
				flat.UpTo = append(flat.UpTo, int32(csr[at])%int32(n))
				flat.UpWt = append(flat.UpWt, wt)
				at += 2
			}
			flat.UpOff[v+1] = int32(len(flat.UpTo))
		}
		lens := make([]uint32, n)
		for v := range lens {
			if v < len(lb) {
				lens[v] = uint32(lb[v])
			}
		}
		if err := RebuildLabels(flat, lens, src); err != nil {
			if !errors.Is(err, ErrInvalidSources) {
				t.Fatalf("untyped error: %v", err)
			}
			if flat.LabOff != nil || flat.rebuilt {
				t.Fatal("a failed rebuild left labels behind")
			}
			return
		}
		if int(flat.LabOff[n]) > len(src) || len(flat.LabHub) != int(flat.LabOff[n]) || len(flat.LabDist) != len(flat.LabHub) {
			t.Fatalf("%d entries (%d hubs, %d distances) from %d source bytes", flat.LabOff[n], len(flat.LabHub), len(flat.LabDist), len(src))
		}
		for v := 0; v < n; v++ {
			if flat.LabOff[v+1]-flat.LabOff[v] != int64(lens[v]) {
				t.Fatalf("vertex %d label has %d entries, declared %d", v, flat.LabOff[v+1]-flat.LabOff[v], lens[v])
			}
			for i := flat.LabOff[v]; i < flat.LabOff[v+1]; i++ {
				h, d := flat.LabHub[i], flat.LabDist[i]
				if h < 0 || int(h) >= n || (i > flat.LabOff[v] && h <= flat.LabHub[i-1]) {
					t.Fatalf("vertex %d entry %d: hub %d out of range or order", v, i-flat.LabOff[v], h)
				}
				if !(d >= 0) || math.IsInf(d, 1) {
					t.Fatalf("vertex %d entry %d: distance %v", v, i-flat.LabOff[v], d)
				}
			}
		}
		lens2, src2, err := HLSources(flat)
		if err != nil {
			t.Fatalf("accepted labels derive no sources: %v", err)
		}
		again := &FlatIndex{Kind: "hl", UpOff: flat.UpOff, UpTo: flat.UpTo, UpWt: flat.UpWt}
		if err := RebuildLabels(again, lens2, src2); err != nil {
			t.Fatalf("re-derived sources do not rebuild: %v", err)
		}
		if !slices.Equal(again.LabHub, flat.LabHub) || !slices.Equal(again.LabOff, flat.LabOff) {
			t.Fatal("re-derived sources rebuild other labels")
		}
		for i, d := range flat.LabDist {
			if math.Float64bits(again.LabDist[i]) != math.Float64bits(d) {
				t.Fatalf("re-derived distance %d is %v, want %v", i, again.LabDist[i], d)
			}
		}
	})
}
