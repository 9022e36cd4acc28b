package dpgraph

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/snapshot"
)

// sealedRelease materializes one seeded synthetic-graph release over
// the E20 topology family (grid, uniform random weights) and returns
// its oracle, result, and sealed bytes.
func sealedRelease(t testing.TB, side int, seed int64, mode QueryIndexMode, opts ...SealOption) (DistanceOracle, Result, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := Grid(side)
	w := UniformRandomWeights(g, 0.5, 3, rng)
	pg, err := New(g, PrivateWeights(w), WithEpsilon(1), WithDeterministicSeed(seed), WithQueryIndex(mode))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := pg.Release()
	if err != nil {
		t.Fatal(err)
	}
	oracle := rel.Oracle()
	var buf bytes.Buffer
	if err := Seal(&buf, oracle, rel, opts...); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return oracle, rel, buf.Bytes()
}

// TestSealUnsealEquivalence is the round-trip property on the E20 grid
// family: the unsealed oracle must answer bit-identically to its
// origin release across the point, batch, and indexed query paths, and
// carry the origin receipt without re-charging.
func TestSealUnsealEquivalence(t *testing.T) {
	for _, mode := range []QueryIndexMode{IndexOff, IndexCH, IndexALT, IndexHL} {
		t.Run(mode.String(), func(t *testing.T) {
			origin, rel, data := sealedRelease(t, 20, 17, mode)
			sealed, err := Unseal(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Unseal: %v", err)
			}
			restored := sealed.Oracle()
			if restored.N() != origin.N() {
				t.Fatalf("restored N = %d, origin %d", restored.N(), origin.N())
			}
			wantKind := map[QueryIndexMode]string{IndexOff: "", IndexCH: "ch", IndexALT: "alt", IndexHL: "hl"}[mode]
			if sealed.IndexKind() != wantKind {
				t.Fatalf("IndexKind = %q, want %q", sealed.IndexKind(), wantKind)
			}

			// Point path, bit for bit.
			rng := rand.New(rand.NewSource(5))
			n := origin.N()
			pairs := make([]VertexPair, 400)
			for i := range pairs {
				pairs[i] = VertexPair{S: rng.Intn(n), T: rng.Intn(n)}
				a, err := origin.Distance(pairs[i].S, pairs[i].T)
				if err != nil {
					t.Fatal(err)
				}
				b, err := restored.Distance(pairs[i].S, pairs[i].T)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("pair (%d,%d): origin %v, restored %v", pairs[i].S, pairs[i].T, a, b)
				}
			}
			// Batch path, bit for bit.
			wantBatch, err := origin.Distances(pairs)
			if err != nil {
				t.Fatal(err)
			}
			gotBatch, err := restored.Distances(pairs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pairs {
				if math.Float64bits(wantBatch[i]) != math.Float64bits(gotBatch[i]) {
					t.Fatalf("batch[%d]: origin %v, restored %v", i, wantBatch[i], gotBatch[i])
				}
			}
			// Error bounds and metadata match the origin result.
			for _, gamma := range []float64{0.01, 0.05, 0.5} {
				if a, b := origin.Bound(gamma), restored.Bound(gamma); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("oracle bound at gamma %g: origin %v, restored %v", gamma, a, b)
				}
				if a, b := rel.Bound(gamma), sealed.Bound(gamma); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("result bound at gamma %g: origin %v, restored %v", gamma, a, b)
				}
			}
			// The receipt is carried, not re-charged.
			or, sr := rel.Info().Receipt, sealed.Info().Receipt
			if or.Mechanism != sr.Mechanism || or.Epsilon != sr.Epsilon || or.Delta != sr.Delta || !or.Time.Equal(sr.Time) {
				t.Fatalf("receipt changed in transit: origin %v, restored %v", or, sr)
			}
			if sealed.Info().Epsilon != rel.Info().Epsilon || sealed.Info().NoiseScale != rel.Info().NoiseScale {
				t.Fatalf("release info changed in transit: %+v vs %+v", sealed.Info(), rel.Info())
			}
		})
	}
}

// TestUnsealedOracleConcurrent hammers a restored indexed oracle from
// many goroutines under -race: the rehydrated index and its fresh
// result cache must serve concurrently, agreeing with the origin.
func TestUnsealedOracleConcurrent(t *testing.T) {
	for _, mode := range []QueryIndexMode{IndexCH, IndexALT, IndexHL} {
		origin, _, data := sealedRelease(t, 12, 23, mode)
		sealed, err := Unseal(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		restored := sealed.Oracle()
		n := restored.N()
		want := make([]float64, n)
		for v := 0; v < n; v++ {
			d, err := origin.Distance(0, v)
			if err != nil {
				t.Fatal(err)
			}
			want[v] = d
		}
		var wg sync.WaitGroup
		for wk := 0; wk < 8; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					v := (i + wk*17) % n
					d, err := restored.Distance(0, v)
					if err != nil {
						t.Error(err)
						return
					}
					if math.Float64bits(d) != math.Float64bits(want[v]) {
						t.Errorf("concurrent query (0,%d) = %v, want %v", v, d, want[v])
						return
					}
				}
			}(wk)
		}
		wg.Wait()
	}
}

// TestSealSignedRoundTrip exercises the signing options end to end:
// verify with the right key, reject the wrong key and unsigned
// artifacts.
func TestSealSignedRoundTrip(t *testing.T) {
	pub, priv, err := snapshot.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	_, _, data := sealedRelease(t, 8, 3, IndexCH, WithSigningKey(priv))

	sealed, err := Unseal(bytes.NewReader(data), WithVerifyKey(pub))
	if err != nil {
		t.Fatalf("Unseal with verify key: %v", err)
	}
	if !sealed.Signed() || !sealed.Verified() {
		t.Fatalf("signed artifact reported signed=%v verified=%v", sealed.Signed(), sealed.Verified())
	}
	if sealed.WriterVersion() == "" {
		t.Fatal("sealed artifact carries no writer version")
	}

	otherPub, _, err := snapshot.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unseal(bytes.NewReader(data), WithVerifyKey(otherPub)); !errors.Is(err, ErrSnapshotBadSignature) {
		t.Fatalf("wrong key: err = %v, want ErrSnapshotBadSignature", err)
	}
	_, _, unsigned := sealedRelease(t, 8, 3, IndexCH)
	if _, err := Unseal(bytes.NewReader(unsigned), WithVerifyKey(pub)); !errors.Is(err, ErrSnapshotBadSignature) {
		t.Fatalf("unsigned artifact: err = %v, want ErrSnapshotBadSignature", err)
	}
	// Without a verify key the signature is reported but unchecked.
	sealed2, err := Unseal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !sealed2.Signed() || sealed2.Verified() {
		t.Fatalf("unverified read reported signed=%v verified=%v", sealed2.Signed(), sealed2.Verified())
	}
}

// TestUnsealFormatVersion2HubLabels: testdata/ring-hl-v2.dpsnap is an
// unsigned version-2 hub-label artifact, which also carries the
// hierarchy its labels were built from. It was sealed from the six-vertex
// ring below with
//
//	dpgraph -graph ring.txt -eps 1 -seed 42 -index hl seal release
//
// It must keep unsealing, and answer all 36 pairs bit for bit like a
// fresh seal of the same seeded release, which carries the hierarchy
// and the labels' sources instead of their arena.
func TestUnsealFormatVersion2HubLabels(t *testing.T) {
	const ring = "graph 6\nedge 0 1 1\nedge 1 2 2\nedge 2 3 1\nedge 3 4 2\nedge 4 5 1\nedge 0 5 4\n"
	old, err := os.ReadFile("testdata/ring-hl-v2.dpsnap")
	if err != nil {
		t.Fatal(err)
	}
	g, w, err := ParseGraph([]byte(ring))
	if err != nil {
		t.Fatal(err)
	}
	oracle, res, err := ReleaseSpec{Mechanism: "release", Epsilon: 1, Seed: 42, Index: "hl"}.Materialize(g, PrivateWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	if err := Seal(&fresh, oracle, res); err != nil {
		t.Fatal(err)
	}
	sections := func(data []byte) (uint32, string) {
		_, info, err := snapshot.Read(bytes.NewReader(data), snapshot.ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, s := range info.Sections {
			names = append(names, s.Name)
		}
		return info.FormatVersion, strings.Join(names, ",")
	}
	if v, names := sections(old); v != 2 || !strings.Contains(names, "ch_up_to") {
		t.Fatalf("fixture is version %d with sections %s, want version 2 with CH sections", v, names)
	}
	if v, names := sections(fresh.Bytes()); v != 4 || !strings.Contains(names, "ch_up_to") || !strings.Contains(names, "hl_src") || strings.Contains(names, "hl_lab_hub") {
		t.Fatalf("fresh seal is version %d with sections %s, want version 4 with the hierarchy and label sources", v, names)
	}

	a, err := Unseal(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("Unseal(version 2): %v", err)
	}
	b, err := Unseal(&fresh)
	if err != nil {
		t.Fatalf("Unseal(version %d): %v", snapshot.FormatVersion, err)
	}
	if a.IndexKind() != "hl" || b.IndexKind() != "hl" {
		t.Fatalf("index kinds %q and %q, want hl", a.IndexKind(), b.IndexKind())
	}
	for s := 0; s < g.N(); s++ {
		for u := 0; u < g.N(); u++ {
			want, err := b.Oracle().Distance(s, u)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Oracle().Distance(s, u)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Distance(%d,%d): version 2 answers %v, version %d answers %v", s, u, got, snapshot.FormatVersion, want)
			}
		}
	}
}

// TestUnsealFormatVersion3HubLabels: testdata/ring-hl-v3.dpsnap is an
// unsigned version-3 hub-label artifact, sealed as its label arena
// alone from the ring release of TestUnsealFormatVersion2HubLabels
// with the same command, before version 4 sealed labels as sources. It
// must keep unsealing and answer all 36 pairs bit for bit like the
// origin release. Having no hierarchy, the restored release re-seals
// its label arena, at version 3, into the fixture's own bytes, which
// unseal again to the same answers.
func TestUnsealFormatVersion3HubLabels(t *testing.T) {
	const ring = "graph 6\nedge 0 1 1\nedge 1 2 2\nedge 2 3 1\nedge 3 4 2\nedge 4 5 1\nedge 0 5 4\n"
	old, err := os.ReadFile("testdata/ring-hl-v3.dpsnap")
	if err != nil {
		t.Fatal(err)
	}
	g, w, err := ParseGraph([]byte(ring))
	if err != nil {
		t.Fatal(err)
	}
	origin, _, err := ReleaseSpec{Mechanism: "release", Epsilon: 1, Seed: 42, Index: "hl"}.Materialize(g, PrivateWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers := func(what string, o DistanceOracle) {
		t.Helper()
		for s := 0; s < g.N(); s++ {
			for u := 0; u < g.N(); u++ {
				want, err := origin.Distance(s, u)
				if err != nil {
					t.Fatal(err)
				}
				got, err := o.Distance(s, u)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Distance(%d,%d) = %v, origin answers %v", what, s, u, got, want)
				}
			}
		}
	}
	sealed, err := Unseal(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("Unseal(version 3): %v", err)
	}
	if sealed.IndexKind() != "hl" {
		t.Fatalf("index kind %q, want hl", sealed.IndexKind())
	}
	sameAnswers("version 3", sealed.Oracle())

	var again bytes.Buffer
	if err := Seal(&again, sealed.Oracle(), sealed); err != nil {
		t.Fatal(err)
	}
	_, info, err := snapshot.Read(bytes.NewReader(again.Bytes()), snapshot.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range info.Sections {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); info.FormatVersion != 3 || got != "meta,edge_from,edge_to,weights,hl_lab_off,hl_lab_hub,hl_lab_dist" {
		t.Fatalf("re-sealed version-3 release is version %d with sections %s, want version 3 with the label arena", info.FormatVersion, got)
	}
	if !bytes.Equal(again.Bytes(), old) {
		t.Fatalf("re-sealing the version-3 release (writer %q, now %q) changed its bytes", sealed.WriterVersion(), info.Writer)
	}
	resealed, err := Unseal(&again)
	if err != nil {
		t.Fatalf("Unseal(re-sealed): %v", err)
	}
	sameAnswers("re-sealed", resealed.Oracle())
}

// TestResealReproducesBytes: a replica that unseals a release and seals
// it again writes the origin's bytes, whatever its index; for hub
// labels that means deriving the same sources from the rebuilt labels.
func TestResealReproducesBytes(t *testing.T) {
	for _, mode := range []QueryIndexMode{IndexOff, IndexCH, IndexALT, IndexHL} {
		_, _, data := sealedRelease(t, 15, 31, mode)
		sealed, err := Unseal(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := Seal(&again, sealed.Oracle(), sealed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Errorf("%s: the re-sealed release (%d bytes) differs from the origin's (%d bytes)", mode, again.Len(), len(data))
		}
	}
}

// TestSealRefusesWhatUnsealRefuses: a forced-ALT release on a graph
// with no vertices has no landmarks, which the reader refuses. Seal
// must fail on it rather than write an artifact no replica can read.
func TestSealRefusesWhatUnsealRefuses(t *testing.T) {
	pg, err := New(NewGraph(0), PrivateWeights(nil), WithEpsilon(1), WithDeterministicSeed(1), WithQueryIndex(IndexALT))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := pg.Release()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = Seal(&buf, rel.Oracle(), rel)
	if err == nil {
		_, uerr := Unseal(bytes.NewReader(buf.Bytes()))
		t.Fatalf("Seal wrote %d bytes that Unseal refuses with %v", buf.Len(), uerr)
	}
	if !errors.Is(err, ErrInvalidSnapshot) {
		t.Fatalf("Seal: err = %v, want ErrInvalidSnapshot", err)
	}
}

// TestSealRejectsNonSealable: lookup-backed oracles have no flat-array
// form and must be refused, not mis-serialized.
func TestSealRejectsNonSealable(t *testing.T) {
	g := Grid(4)
	rng := rand.New(rand.NewSource(9))
	w := UniformRandomWeights(g, 1, 2, rng)
	pg, err := New(g, PrivateWeights(w), WithDeterministicSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := pg.AllPairsDistances()
	if err != nil {
		t.Fatal(err)
	}
	if err := Seal(&bytes.Buffer{}, rel.Oracle(), rel); !errors.Is(err, ErrNotSealable) {
		t.Fatalf("sealing a table oracle: err = %v, want ErrNotSealable", err)
	}
}

// TestUnsealRejectsForgedReceipt: an artifact whose receipt disagrees
// with its own metadata must hard-fail even though the container
// itself is well-formed — the receipt cross-check is the last line
// against a spliced artifact.
func TestUnsealRejectsForgedReceipt(t *testing.T) {
	art := &snapshot.Artifact{
		Meta: snapshot.Meta{
			Mechanism:  "release",
			Epsilon:    1,
			NoiseScale: 4,
			N:          2,
			M:          1,
			// Receipt claims a different epsilon than the metadata.
			Receipt: json.RawMessage(`{"mechanism":"release","epsilon":8,"time":"2026-01-02T03:04:05Z"}`),
		},
		EdgeFrom: []uint32{0},
		EdgeTo:   []uint32{1},
		Weights:  []float64{1.5},
	}
	art.Meta.FormatVersion = snapshot.SealVersion(&art.Meta)
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, art, snapshot.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	sealed, err := Unseal(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrInvalidSnapshot) {
		t.Fatalf("forged receipt: err = %v, want ErrInvalidSnapshot", err)
	}
	if sealed != nil {
		t.Fatal("forged receipt returned a sealed release")
	}

	// Mismatched mechanism, same shape.
	art.Meta.Receipt = json.RawMessage(`{"mechanism":"treesssp","epsilon":1,"time":"2026-01-02T03:04:05Z"}`)
	buf.Reset()
	if err := snapshot.Write(&buf, art, snapshot.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Unseal(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrInvalidSnapshot) {
		t.Fatalf("forged mechanism: err = %v, want ErrInvalidSnapshot", err)
	}
}

// FuzzUnseal throws corrupted archives at Unseal: truncations,
// bit flips, and length-lying headers. The contract is typed errors
// only — no panics, and never a partial oracle.
func FuzzUnseal(f *testing.F) {
	seeds := make([][]byte, 0, 8)
	for _, mode := range []QueryIndexMode{IndexOff, IndexCH, IndexALT, IndexHL} {
		_, _, data := sealedRelease(f, 5, int64(mode)+1, mode)
		seeds = append(seeds, data)
	}
	_, priv, err := snapshot.GenerateKey()
	if err != nil {
		f.Fatal(err)
	}
	_, _, signed := sealedRelease(f, 5, 9, IndexCH, WithSigningKey(priv))
	seeds = append(seeds, signed)

	base := seeds[1]
	// Truncations at structural boundaries.
	for _, cut := range []int{0, 7, 8, 55, 56, 120, len(base) / 2, len(base) - 1} {
		if cut < len(base) {
			seeds = append(seeds, base[:cut])
		}
	}
	// Bit flips in the header, table, and payload.
	for _, pos := range []int{9, 12, 60, 80, 200, len(base) - 30} {
		if pos >= 0 && pos < len(base) {
			mut := append([]byte(nil), base...)
			mut[pos] ^= 0x10
			seeds = append(seeds, mut)
		}
	}
	// Length-lying header: manifest length maxed out.
	mut := append([]byte(nil), base...)
	for i := 24; i < 32; i++ {
		mut[i] = 0xFF
	}
	seeds = append(seeds, mut)
	// A version-2 hub-label artifact, whose hierarchy sections the
	// reader verifies and drops.
	v2, err := os.ReadFile("testdata/ring-hl-v2.dpsnap")
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, v2)
	// A version-3 hub-label artifact, sealed as its label arena.
	v3, err := os.ReadFile("testdata/ring-hl-v3.dpsnap")
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, v3)
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sealed, err := Unseal(bytes.NewReader(data))
		if err != nil {
			if sealed != nil {
				t.Fatal("Unseal returned a sealed release alongside an error")
			}
			if !errors.Is(err, ErrInvalidSnapshot) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Accepted input must yield a fully working oracle.
		o := sealed.Oracle()
		if o == nil {
			t.Fatal("accepted snapshot has no oracle")
		}
		if o.N() > 0 {
			if _, err := o.Distance(0, o.N()-1); err != nil {
				t.Fatalf("accepted snapshot's oracle fails: %v", err)
			}
		}
		sealed.Bound(0.05)
		_ = sealed.Summary()
	})
}
