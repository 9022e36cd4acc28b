package snapshot

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph/index"
)

// testArtifact builds a small consistent artifact: a 4-cycle with a CH
// index shape (the CH arrays here are structurally valid, not the
// product of a real contraction — this package only checks structure).
func testArtifact(index string) *Artifact {
	art := &Artifact{
		Meta: Meta{
			FormatVersion: FormatVersion,
			Writer:        "test-writer",
			Mechanism:     "synthetic_graph",
			Epsilon:       1,
			NoiseScale:    4,
			N:             4,
			M:             4,
			Index:         index,
			Receipt:       json.RawMessage(`{"mechanism":"synthetic_graph","epsilon":1,"time":"2026-01-02T03:04:05Z"}`),
		},
		EdgeFrom: []uint32{0, 1, 2, 3},
		EdgeTo:   []uint32{1, 2, 3, 0},
		Weights:  []float64{1, 2.5, 3, 0},
	}
	art.Meta.FormatVersion = SealVersion(&art.Meta)
	switch index {
	case "ch":
		art.CHUpOff = []int32{0, 2, 3, 4, 4}
		art.CHUpTo = []int32{1, 3, 2, 3}
		art.CHUpWt = []float64{1, 0, 2.5, 3}
	case "alt":
		art.Meta.Landmarks = 2
		art.ALTLandmarks = []float64{0, 1, 3.5, 0, 1, 0, 2.5, 1}
	case "hl":
		art.HLLabOff = []int64{0, 2, 3, 4, 5}
		art.HLLabHub = []int32{1, 3, 2, 3, 3}
		art.HLLabDist = []float64{0, 1, 0, 0, 0}
	}
	return art
}

// testSourcesArtifact is testArtifact("ch")'s topology and hierarchy
// with the hub labels that hierarchy yields (unpruned), sealed as
// sources at version 4.
func testSourcesArtifact(t *testing.T) *Artifact {
	t.Helper()
	art := testArtifact("ch")
	err := art.SetIndex(&index.FlatIndex{
		Kind:  "hl",
		UpOff: art.CHUpOff, UpTo: art.CHUpTo, UpWt: art.CHUpWt,
		LabOff:  []int64{0, 4, 7, 9, 10},
		LabHub:  []int32{0, 1, 2, 3, 1, 2, 3, 2, 3, 3},
		LabDist: []float64{0, 1, 3.5, 0, 0, 2.5, 5.5, 0, 3, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	art.Meta.FormatVersion = SealVersion(&art.Meta)
	return art
}

func seal(t *testing.T, art *Artifact, opts WriteOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, art, opts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, index := range []string{"", "ch", "alt", "hl"} {
		name := index
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			want := testArtifact(index)
			data := seal(t, want, WriteOptions{})
			got, info, err := Read(bytes.NewReader(data), ReadOptions{})
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if info.Signed || info.Verified {
				t.Fatalf("unsigned artifact reported signed=%v verified=%v", info.Signed, info.Verified)
			}
			if info.Writer != "test-writer" || info.FormatVersion != uint32(want.Meta.FormatVersion) {
				t.Fatalf("info = %+v", info)
			}
			checkEqualArtifacts(t, want, got)
		})
	}
}

func checkEqualArtifacts(t *testing.T, want, got *Artifact) {
	t.Helper()
	wantMeta, _ := json.Marshal(want.Meta)
	gotMeta, _ := json.Marshal(got.Meta)
	if !bytes.Equal(wantMeta, gotMeta) {
		t.Errorf("meta changed:\nwant %s\ngot  %s", wantMeta, gotMeta)
	}
	eqU32 := func(name string, a, b []uint32) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d entries, want %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, b[i], a[i])
			}
		}
	}
	eqI32 := func(name string, a, b []int32) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d entries, want %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, b[i], a[i])
			}
		}
	}
	eqF64 := func(name string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d entries, want %d", name, len(b), len(a))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %v, want %v (bit-exact)", name, i, b[i], a[i])
			}
		}
	}
	eqI64 := func(name string, a, b []int64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d entries, want %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, b[i], a[i])
			}
		}
	}
	eqU32("EdgeFrom", want.EdgeFrom, got.EdgeFrom)
	eqU32("EdgeTo", want.EdgeTo, got.EdgeTo)
	eqF64("Weights", want.Weights, got.Weights)
	eqI32("CHUpOff", want.CHUpOff, got.CHUpOff)
	eqI32("CHUpTo", want.CHUpTo, got.CHUpTo)
	eqF64("CHUpWt", want.CHUpWt, got.CHUpWt)
	eqF64("ALTLandmarks", want.ALTLandmarks, got.ALTLandmarks)
	eqI64("HLLabOff", want.HLLabOff, got.HLLabOff)
	eqI32("HLLabHub", want.HLLabHub, got.HLLabHub)
	eqF64("HLLabDist", want.HLLabDist, got.HLLabDist)
	eqU32("HLLabLen", want.HLLabLen, got.HLLabLen)
	if !bytes.Equal(want.HLSrc, got.HLSrc) {
		t.Fatalf("HLSrc = %x, want %x", got.HLSrc, want.HLSrc)
	}
}

func TestSectionAlignment(t *testing.T) {
	data := seal(t, testArtifact("ch"), WriteOptions{})
	_, info, err := Read(bytes.NewReader(data), ReadOptions{})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, s := range info.Sections {
		if s.Offset%sectionAlign != 0 {
			t.Errorf("%s section at offset %d, not %d-byte aligned", s.Name, s.Offset, sectionAlign)
		}
	}
}

func TestDeterministicSeal(t *testing.T) {
	_, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	a := seal(t, testArtifact("ch"), WriteOptions{SigningKey: priv})
	b := seal(t, testArtifact("ch"), WriteOptions{SigningKey: priv})
	if !bytes.Equal(a, b) {
		t.Fatal("sealing the same artifact twice produced different bytes")
	}
}

// TestGoldenDigests pins the sealed bytes across builds, not just
// within one: each test artifact, sealed at the version SealVersion
// picks and signed with a key derived from a fixed seed, must hash to
// the digest recorded here. A change to any of them is a format change
// and needs a new FormatVersion. The four version-3 digests predate
// version 4, which added "hl-sources" and left them unchanged.
func TestGoldenDigests(t *testing.T) {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(i)
	}
	key := ed25519.NewKeyFromSeed(seed)
	want := map[string]string{
		"":    "209328df26daf709c9262da82750feabcd1f25d62d325be71efd3eedc0623a35",
		"ch":  "9675d25352a3036906db0107a519dbb87ac217e9972c49fccb54beffb7a90307",
		"alt": "d9d0d0a7301482ed4055a0dc4ab3a746be9de876b59820994db46d0b1c18e11a",
		"hl":  "5a06f7206a44ddbbc9c7b996de6707d9a33e73ec0243702d22f9228cbd9ea717",

		"hl-sources": "410b556909ac2688159c25837a26aff450f16b6765005eb032e5508cea81829f",
	}
	for name, digest := range want {
		var art *Artifact
		if name == "hl-sources" {
			art = testSourcesArtifact(t)
		} else {
			art = testArtifact(name)
		}
		sum := sha256.Sum256(seal(t, art, WriteOptions{SigningKey: key}))
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("artifact %q: sealed at version %d, hashes to %s, want %s", name, art.Meta.FormatVersion, got, digest)
		}
	}
}

func TestSignatureVerifies(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	data := seal(t, testArtifact(""), WriteOptions{SigningKey: priv})
	_, info, err := Read(bytes.NewReader(data), ReadOptions{VerifyKey: pub})
	if err != nil {
		t.Fatalf("Read with verify key: %v", err)
	}
	if !info.Signed || !info.Verified {
		t.Fatalf("signed artifact reported signed=%v verified=%v", info.Signed, info.Verified)
	}

	// The wrong key must be rejected.
	otherPub, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(bytes.NewReader(data), ReadOptions{VerifyKey: otherPub}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong key: err = %v, want ErrBadSignature", err)
	}
	// An unsigned artifact must be rejected when verification is on.
	unsigned := seal(t, testArtifact(""), WriteOptions{})
	if _, _, err := Read(bytes.NewReader(unsigned), ReadOptions{VerifyKey: pub}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("unsigned: err = %v, want ErrBadSignature", err)
	}
}

func TestTamperRejected(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	data := seal(t, testArtifact("ch"), WriteOptions{SigningKey: priv})

	// Flip one bit at every byte position; every mutation must fail
	// verified reads, and none may panic.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		art, _, err := Read(bytes.NewReader(mut), ReadOptions{VerifyKey: pub})
		if err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("bit flip at byte %d: error %v does not wrap ErrInvalid", i, err)
		}
		if art != nil {
			t.Fatalf("bit flip at byte %d returned a partial artifact", i)
		}
	}
}

func TestTruncationRejected(t *testing.T) {
	data := seal(t, testArtifact("alt"), WriteOptions{})
	for _, cut := range []int{0, 1, 7, 8, 55, 56, 57, 100, len(data) / 2, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		art, _, err := Read(bytes.NewReader(data[:cut]), ReadOptions{})
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("truncation at %d: err = %v, want ErrInvalid", cut, err)
		}
		if art != nil {
			t.Fatalf("truncation at %d returned a partial artifact", cut)
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	data := seal(t, testArtifact(""), WriteOptions{})
	data = append(data, 0xFF)
	if _, _, err := Read(bytes.NewReader(data), ReadOptions{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("trailing garbage: err = %v, want ErrInvalid", err)
	}
}

func TestUnknownVersionRejected(t *testing.T) {
	data := seal(t, testArtifact(""), WriteOptions{})
	mut := append([]byte(nil), data...)
	mut[8] = 99 // header version field
	if _, _, err := Read(bytes.NewReader(mut), ReadOptions{}); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("version bump: err = %v, want ErrUnknownVersion", err)
	}
}

// TestFormatVersion1RoundTrip pins backward compatibility: artifacts
// sealed at format version 1 (everything but hub labels) must keep
// reading under the current reader, bit for bit.
func TestFormatVersion1RoundTrip(t *testing.T) {
	for _, index := range []string{"", "ch", "alt"} {
		name := index
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			want := testArtifact(index)
			want.Meta.FormatVersion = 1
			data := rawContainer(t, want, kindSections(want)...)
			got, info, err := Read(bytes.NewReader(data), ReadOptions{})
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if info.FormatVersion != 1 {
				t.Fatalf("info reports version %d, want 1", info.FormatVersion)
			}
			checkEqualArtifacts(t, want, got)
		})
	}
}

// TestFormatVersion1RejectsHubLabels: version 1 has no hub-label
// sections, so a version-1 container carrying them is rejected, and
// Write refuses to seal an artifact declaring version 1.
func TestFormatVersion1RejectsHubLabels(t *testing.T) {
	art := testArtifact("hl")
	art.Meta.FormatVersion = 1
	data := rawContainer(t, art, kindSections(art)...)
	if _, _, err := Read(bytes.NewReader(data), ReadOptions{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("version-1 container with hub labels: err = %v, want ErrInvalid", err)
	}
	if err := Write(io.Discard, art, WriteOptions{}); err == nil {
		t.Fatal("Write emitted hub labels into a version-1 container")
	}
}

// rawContainer seals art's meta, edge and weight sections followed by
// extra, at art's declared format version, without Write's checks on
// the version and on which index sections belong together: it builds
// the older containers and the malformed ones the writer refuses to
// emit.
func rawContainer(t *testing.T, art *Artifact, extra ...section) []byte {
	t.Helper()
	meta, err := metaSection(art)
	if err != nil {
		t.Fatal(err)
	}
	secs := []section{meta}
	for i := 1; sectionTable[i].name != "ch_up_off"; i++ {
		secs = append(secs, arraySection(&sectionTable[i], art))
	}
	var buf bytes.Buffer
	if err := writeContainer(&buf, uint32(art.Meta.FormatVersion), art.Meta.Writer, append(secs, extra...), nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// kindSections are the sections of art's own index kind (those whose
// names carry its prefix) that art holds an array for, built from
// those arrays.
func kindSections(art *Artifact) []section {
	var secs []section
	for i := range sectionTable {
		if s := &sectionTable[i]; art.Meta.Index != "" && strings.HasPrefix(s.name, art.Meta.Index+"_") && arrayLen(s.array(art)) > 0 {
			secs = append(secs, arraySection(s, art))
		}
	}
	return secs
}

// TestHubLabelsStandAlone: from version 3 an "hl" artifact is meta,
// edges, weights and the label arena, nothing else. The reader refuses
// a version-3 "hl" artifact that carries any CH section, and the
// writer refuses to seal "hl" at version 2, where the hierarchy rode
// along.
func TestHubLabelsStandAlone(t *testing.T) {
	want := testArtifact("hl")
	_, info, err := Read(bytes.NewReader(seal(t, want, WriteOptions{})), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range info.Sections {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "meta,edge_from,edge_to,weights,hl_lab_off,hl_lab_hub,hl_lab_dist" {
		t.Fatalf("version-%d hl sections = %s", info.FormatVersion, got)
	}

	ch, hl := kindSections(testArtifact("ch")), kindSections(want)
	for i := range ch {
		data := rawContainer(t, want, append([]section{ch[i]}, hl...)...)
		art, _, err := Read(bytes.NewReader(data), ReadOptions{})
		if !errors.Is(err, ErrInvalid) || art != nil {
			t.Fatalf("version-3 hl artifact with a %s section: art=%v err=%v", ch[i].spec.name, art != nil, err)
		}
	}
	data := rawContainer(t, want, append(ch, hl...)...)
	if _, _, err := Read(bytes.NewReader(data), ReadOptions{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("version-3 hl artifact with all CH sections: err = %v, want ErrInvalid", err)
	}

	old := testArtifact("hl")
	old.Meta.FormatVersion = 2
	if err := Write(io.Discard, old, WriteOptions{}); err == nil {
		t.Fatal("Write sealed hub labels into a version-2 container")
	}
}

// TestFormatVersion2HubLabelsRead: a version-2 "hl" artifact carries
// the CH sections its labels were built from. It still reads: the CH
// sections must be present and digest-clean, and are then dropped, so
// the artifact comes back as its labels alone.
func TestFormatVersion2HubLabelsRead(t *testing.T) {
	want := testArtifact("hl")
	want.Meta.FormatVersion = 2
	hl := kindSections(want)
	data := rawContainer(t, want, append(kindSections(testArtifact("ch")), hl...)...)
	got, info, err := Read(bytes.NewReader(data), ReadOptions{})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if info.FormatVersion != 2 || len(info.Sections) != 10 {
		t.Fatalf("info reports version %d with %d sections, want 2 with 10", info.FormatVersion, len(info.Sections))
	}
	checkEqualArtifacts(t, want, got)

	// The hierarchy is verified, not skipped: without it, or with a
	// corrupted byte in it, the artifact is rejected.
	if _, _, err := Read(bytes.NewReader(rawContainer(t, want, hl...)), ReadOptions{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("version-2 hl artifact without CH sections: err = %v, want ErrInvalid", err)
	}
	mut := append([]byte(nil), data...)
	mut[info.Sections[5].Offset] ^= 1 // first byte of ch_up_to
	if _, _, err := Read(bytes.NewReader(mut), ReadOptions{}); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("corrupted ch_up_to in a version-2 hl artifact: err = %v, want ErrDigestMismatch", err)
	}
}

// TestWriteRejectsVersionSkew: the meta document restates the container
// version inside the signed payload chain, so it must declare the one
// version Write emits.
func TestWriteRejectsVersionSkew(t *testing.T) {
	for _, v := range []int{0, 1, FormatVersion + 1} {
		art := testArtifact("")
		art.Meta.FormatVersion = v
		if err := Write(io.Discard, art, WriteOptions{}); err == nil {
			t.Fatalf("Write accepted meta version %d in a version-%d container", v, FormatVersion)
		}
	}
}

func TestLengthLyingDoesNotAllocate(t *testing.T) {
	// A header claiming a multi-gigabyte weights section backed by a
	// short stream must fail on truncation, cheaply, instead of
	// allocating the claimed length up front.
	data := seal(t, testArtifact(""), WriteOptions{})
	// Rewrite meta's M field indirectly: simplest robust approach is a
	// synthetic stream — magic + header claiming a huge manifest.
	mut := append([]byte(nil), data[:56]...)
	for i := 16; i < 24; i++ { // manifestLen = huge
		mut[i] = 0xFF
	}
	art, _, err := Read(bytes.NewReader(mut), ReadOptions{})
	if err == nil || art != nil {
		t.Fatalf("length-lying header accepted: art=%v err=%v", art, err)
	}
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}

	// An array section whose claimed length meta agrees with, backed by
	// a stream of two chunks: the decoder may allocate its capped
	// initial capacity, not the 64 MiB claimed.
	lie := testArtifact("")
	lie.Meta.M = 1 << 24
	mut = rawContainer(t, lie)
	le := binary.LittleEndian
	entry := func(i int) []byte { return mut[len(magic)+headerSize+i*tableEntrySize:] }
	le.PutUint64(entry(1)[16:], 4<<24) // edge_from length
	off := le.Uint64(entry(1)[8:]) + 4<<24
	for i := 2; i < 4; i++ {
		off = align64(off)
		le.PutUint64(entry(i)[8:], off)
		off += le.Uint64(entry(i)[16:])
	}
	le.PutUint64(mut[len(magic)+8:], align64(off))                                 // manifest offset
	le.PutUint64(mut[len(magic)+24:], align64(off)+le.Uint64(mut[len(magic)+16:])) // signature offset
	mut = append(mut, make([]byte, 2*chunkBytes)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	art, _, err = Read(bytes.NewReader(mut), ReadOptions{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrInvalid) || art != nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("length-lying edge_from section: art=%v err=%v, want truncation", art != nil, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("length-lying edge_from section allocated %d bytes", got)
	}
}

// TestTruthfulSectionExactCapacity: a section whose bytes all arrive
// decodes into a slice with cap == len, whether its count fits the
// capped first allocation or needs the reservation at half, so an
// unsealed release holds no growth slack.
func TestTruthfulSectionExactCapacity(t *testing.T) {
	buf := make([]byte, chunkBytes)
	for _, count := range []int{1, 1000, maxInitElems, maxInitElems + 1, 3*maxInitElems + 5} {
		want := make([]float64, count)
		hubs := make([]int32, count)
		for i := range want {
			want[i] = float64(i) / 3
			hubs[i] = int32(count - i)
		}
		var stream bytes.Buffer
		if err := encodeArray(&stream, &want); err != nil {
			t.Fatal(err)
		}
		if err := encodeArray(&stream, &hubs); err != nil {
			t.Fatal(err)
		}
		var got []float64
		var gotHubs []int32
		if err := decodeArray(&stream, &got, uint64(count), buf); err != nil {
			t.Fatal(err)
		}
		if err := decodeArray(&stream, &gotHubs, uint64(count), buf); err != nil {
			t.Fatal(err)
		}
		if cap(got) != len(got) || cap(gotHubs) != len(gotHubs) {
			t.Errorf("count %d: float64 len %d cap %d, int32 len %d cap %d", count, len(got), cap(got), len(gotHubs), cap(gotHubs))
		}
		if !slices.Equal(got, want) || !slices.Equal(gotHubs, hubs) {
			t.Errorf("count %d: decoded values differ from the encoded ones", count)
		}
	}

	// The same through Read: a 3*maxInitElems-edge cycle's edge and
	// weight arrays arrive at exactly their length.
	n := 3 * maxInitElems
	art := testArtifact("")
	art.Meta.N, art.Meta.M = n, n
	art.EdgeFrom, art.EdgeTo, art.Weights = make([]uint32, n), make([]uint32, n), make([]float64, n)
	for i := 0; i < n; i++ {
		art.EdgeFrom[i], art.EdgeTo[i], art.Weights[i] = uint32(i), uint32((i+1)%n), float64(i%7)
	}
	got, _, err := Read(bytes.NewReader(seal(t, art, WriteOptions{})), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cap(got.EdgeFrom) != n || cap(got.EdgeTo) != n || cap(got.Weights) != n {
		t.Fatalf("unsealed capacities %d/%d/%d for %d edges", cap(got.EdgeFrom), cap(got.EdgeTo), cap(got.Weights), n)
	}
	if !slices.Equal(got.Weights, art.Weights) {
		t.Fatal("unsealed weights differ")
	}
}

func TestWriterRejectsInconsistentArtifact(t *testing.T) {
	cases := map[string]func(*Artifact){
		"edge-count":      func(a *Artifact) { a.Meta.M = 5 },
		"endpoint-range":  func(a *Artifact) { a.EdgeFrom[0] = 9 },
		"negative-weight": func(a *Artifact) { a.Weights[0] = -1 },
		"nan-weight":      func(a *Artifact) { a.Weights[0] = math.NaN() },
		"no-receipt":      func(a *Artifact) { a.Meta.Receipt = nil },
		"bad-index":       func(a *Artifact) { a.Meta.Index = "btree" },
		"stray-alt-rows":  func(a *Artifact) { a.ALTLandmarks = []float64{1} },
		"stray-hl-arena":  func(a *Artifact) { a.HLLabHub = []int32{0} },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			art := testArtifact("")
			mutate(art)
			if err := Write(io.Discard, art, WriteOptions{}); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Write: err = %v, want ErrInvalid", err)
			}
		})
	}
	hlCases := map[string]func(*Artifact){
		"hl-short-lab-off":  func(a *Artifact) { a.HLLabOff = a.HLLabOff[:3] },
		"hl-arena-mismatch": func(a *Artifact) { a.HLLabDist = a.HLLabDist[:len(a.HLLabDist)-1] },
		"hl-off-past-arena": func(a *Artifact) { a.HLLabOff[len(a.HLLabOff)-1]++ },
		"hl-alt-rows":       func(a *Artifact) { a.ALTLandmarks = []float64{1} },
		"hl-ch-arrays":      func(a *Artifact) { a.CHUpOff = []int32{0, 0, 0, 0, 0} },
	}
	for name, mutate := range hlCases {
		t.Run(name, func(t *testing.T) {
			art := testArtifact("hl")
			mutate(art)
			if err := Write(io.Discard, art, WriteOptions{}); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Write: err = %v, want ErrInvalid", err)
			}
		})
	}
	t.Run("ch-off-past-arena", func(t *testing.T) {
		art := testArtifact("ch")
		art.CHUpOff[len(art.CHUpOff)-1]++
		if err := Write(io.Discard, art, WriteOptions{}); !errors.Is(err, ErrInvalid) {
			t.Fatalf("Write accepted CH offsets that end past the upward arrays: err = %v", err)
		}
	})
}

// TestLandmarkBound: the reader allows no more landmarks than an ALT
// index can hold, so an artifact that would fail rehydration on its
// landmark count fails to read instead.
func TestLandmarkBound(t *testing.T) {
	art := testArtifact("alt")
	art.Meta.Landmarks = 33
	art.ALTLandmarks = make([]float64, 33*art.Meta.N)
	data := rawContainer(t, art, kindSections(art)...)
	if got, _, err := Read(bytes.NewReader(data), ReadOptions{}); !errors.Is(err, ErrInvalid) || got != nil {
		t.Fatalf("33 landmarks: art=%v err=%v, want ErrInvalid", got != nil, err)
	}
}

func TestKeyPEMRoundTrip(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	privPEM, err := MarshalPrivateKeyPEM(priv)
	if err != nil {
		t.Fatal(err)
	}
	pubPEM, err := MarshalPublicKeyPEM(pub)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(privPEM), "PRIVATE KEY") || !strings.Contains(string(pubPEM), "PUBLIC KEY") {
		t.Fatalf("unexpected PEM headers:\n%s\n%s", privPEM, pubPEM)
	}
	priv2, err := ParsePrivateKeyPEM(privPEM)
	if err != nil {
		t.Fatal(err)
	}
	pub2, err := ParsePublicKeyPEM(pubPEM)
	if err != nil {
		t.Fatal(err)
	}
	if !priv.Equal(priv2) || !pub.Equal(pub2) {
		t.Fatal("PEM round trip changed the keys")
	}
	if _, err := ParsePrivateKeyPEM(pubPEM); err == nil {
		t.Fatal("public PEM accepted as a private key")
	}
	if _, err := ParsePublicKeyPEM(privPEM); err == nil {
		t.Fatal("private PEM accepted as a public key")
	}
}

func TestWriterVersionNonEmpty(t *testing.T) {
	if v := WriterVersion(); v == "" {
		t.Fatal("WriterVersion returned an empty string")
	}
}

// TestHubLabelSources: hub labels that carry their hierarchy seal as
// sources at version 4 — the hierarchy, the label lengths and the
// source stream, no arena — and Read rebuilds the arena bit for bit.
// Sealing what Read returned reproduces the artifact's bytes.
func TestHubLabelSources(t *testing.T) {
	want := testSourcesArtifact(t)
	data := seal(t, want, WriteOptions{})
	got, info, err := Read(bytes.NewReader(data), ReadOptions{})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	var names []string
	for _, s := range info.Sections {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); info.FormatVersion != 4 || got != "meta,edge_from,edge_to,weights,ch_up_off,ch_up_to,ch_up_wt,hl_lab_len,hl_src" {
		t.Fatalf("version-%d hl sources artifact has sections %s", info.FormatVersion, got)
	}
	if n := int64(len(want.HLSrc)); n != want.Meta.HLSourceBytes || n != 2*int64(len(want.HLLabHub)) {
		t.Fatalf("%d source bytes, meta declares %d, for %d one-byte-pair entries", n, want.Meta.HLSourceBytes, len(want.HLLabHub))
	}
	checkEqualArtifacts(t, want, got)
	if again := seal(t, got, WriteOptions{}); !bytes.Equal(again, data) {
		t.Fatal("re-sealing the artifact Read returned changed its bytes")
	}
	if f := got.Index(); f != got.rebuilt {
		t.Fatal("Index does not hand back the flat index Read rebuilt")
	}
	got.HLLabHub = append([]int32(nil), got.HLLabHub...)
	if f := got.Index(); f == got.rebuilt || &f.LabHub[0] != &got.HLLabHub[0] {
		t.Fatal("Index hands back the rebuilt flat index after its arrays were replaced")
	}

	// Version 3 cannot carry sources, and the meta's byte count is
	// checked against the stream.
	old := testSourcesArtifact(t)
	old.Meta.FormatVersion = 3
	if err := Write(io.Discard, old, WriteOptions{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Write sealed hub-label sources at version 3: err = %v", err)
	}
	short := testSourcesArtifact(t)
	short.Meta.HLSourceBytes--
	if err := Write(io.Discard, short, WriteOptions{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Write sealed a source stream longer than the meta declares: err = %v", err)
	}
}

// TestHubLabelSourcesRejected: a source stream that does not rebuild
// into valid labels fails Read with ErrInvalid, and only after the
// signature check: a stream signed by another key is a bad signature
// before it is anything else.
func TestHubLabelSourcesRejected(t *testing.T) {
	cases := map[string]func(a *Artifact){
		"edge-out-of-range":     func(a *Artifact) { a.HLSrc[2] = 9 },              // vertex 2 names its edge 8 of 1
		"position-out-of-range": func(a *Artifact) { a.HLSrc[len(a.HLSrc)-1] = 7 }, // vertex 0's last entry
		"hubs-not-ascending":    func(a *Artifact) { a.HLLabLen[3], a.HLLabLen[2] = 2, 1 },
		"self-with-position":    func(a *Artifact) { a.HLSrc[1] = 1 },
		"non-minimal-uvarint":   func(a *Artifact) { a.HLSrc[0], a.HLSrc[1] = 0x80, 0x00 },
		"too-few-bytes":         func(a *Artifact) { a.HLLabLen[0] = 200 },
		"infinite-distance":     func(a *Artifact) { a.CHUpWt[2] = math.Inf(1) },
	}
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	otherPub, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			art := testSourcesArtifact(t)
			mutate(art)
			data := seal(t, art, WriteOptions{SigningKey: priv})
			got, _, err := Read(bytes.NewReader(data), ReadOptions{VerifyKey: pub})
			if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "hub-label sources") || got != nil {
				t.Fatalf("art=%v err=%v, want invalid hub-label sources", got != nil, err)
			}
			if _, _, err := Read(bytes.NewReader(data), ReadOptions{VerifyKey: otherPub}); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("signed by another key: err = %v, want ErrBadSignature", err)
			}
		})
	}
}

// TestHubLabelSourcesLengthLying: label lengths that declare far more
// entries than the source stream could hold fail before any label
// array is allocated.
func TestHubLabelSourcesLengthLying(t *testing.T) {
	art := testSourcesArtifact(t)
	art.HLLabLen[0] = 1 << 30
	data := seal(t, art, WriteOptions{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, _, err := Read(bytes.NewReader(data), ReadOptions{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrInvalid) || got != nil {
		t.Fatalf("art=%v err=%v, want ErrInvalid", got != nil, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("lying label lengths allocated %d bytes", n)
	}
}
