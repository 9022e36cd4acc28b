// Package snapshot implements the sealed release container: a
// versioned binary artifact that carries one materialized release —
// flat little-endian CSR arrays, the released weight vector, the
// query-index arrays (CH upward graph, hub labels, or ALT landmark
// rows), and the JSON privacy receipt — between processes and
// machines. The container is what makes a release shippable:
// materializing spends privacy budget and runs contraction once, and
// every replica that unseals the artifact gets a bit-identical oracle
// for free.
//
// Layout (all integers little-endian):
//
//	offset 0   magic            8 bytes  "DPGSNAP\x01"
//	offset 8   header          48 bytes  version, section count,
//	                                     manifest/signature locators
//	offset 56  section table   56 bytes per section: kind, offset,
//	                                     length, SHA-256 digest
//	...        sections        each starting on a 64-byte boundary,
//	                           zero-padded between, so a future reader
//	                           can mmap the numeric arrays in place
//	...        manifest        JSON restating every table entry
//	...        signature       ed25519 over the manifest bytes (0 or
//	                           64 bytes)
//
// Sections appear in strictly increasing kind order, meta first. The
// section table below (sectionTable) is the one statement of what each
// kind holds, and Write, Read and the checks they share all loop over
// it:
//
//	kind  name           element  length (elements)   carried by
//	1     meta           JSON     the Meta document    every artifact
//	2     edge_from      uint32   M                    every artifact
//	3     edge_to        uint32   M                    every artifact
//	4     weights        float64  M                    every artifact
//	5     ch_up_off      int32    N+1                  ch; hl at version 2; hl sources
//	6     ch_up_to       int32    ch_up_off[N]         ch; hl at version 2; hl sources
//	7     ch_up_wt       float64  ch_up_off[N]         ch; hl at version 2; hl sources
//	8     alt_landmarks  float64  landmarks × N        alt
//	9     hl_lab_off     int64    N+1                  hl arena (version 2+)
//	10    hl_lab_hub     int32    hl_lab_off[N]        hl arena (version 2+)
//	11    hl_lab_dist    float64  hl_lab_off[N]        hl arena (version 2+)
//	12    hl_lab_len     uint32   N                    hl sources (version 4)
//	13    hl_src         byte     meta hl_source_bytes hl sources (version 4)
//
// Hub labels are sealed in one of two forms. The arena form (kinds
// 9–11) stores every entry as its (hub, distance) pair. A version-2
// arena artifact also carried the hierarchy the labels were built
// from; the reader verifies those sections' digests, then drops them.
// The sources form (version 4, meta hl_source_bytes > 0) stores the
// hierarchy, each label's length, and a byte stream that names every
// entry by two uvarints: the upward edge it came through and its
// position in the label that edge leads to (index.HLSources). It is
// about a quarter of the arena's size. Read rebuilds the arena from it
// once every digest, and the signature when a key is given, has
// verified, and no sooner: it allocates at most one entry per two
// source bytes (index.RebuildLabels). A rebuilt distance is one
// float64 addition of two sealed float64s, an upward-edge weight and
// an entry of a higher label: the same two operands labelling added.
// Go may fuse a multiplication into an addition, but there is none to
// fuse, so both sides round the one IEEE 754 sum to nearest-even and
// every platform rebuilds the origin's labels bit for bit. An "hl"
// index that knows its hierarchy is sealed as sources; one restored
// from an arena, which has none, as an arena.
//
// Write emits the version SealVersion gives: the oldest that carries
// the artifact, so only hub labels sealed as sources need a version-4
// reader.
//
// The manifest is the root of trust: it embeds each section's digest,
// so the detached signature over the manifest bytes authenticates the
// entire artifact, and the reader rejects any divergence between the
// (unsigned) section table and the (signed) manifest. ed25519 signing
// is deterministic, so sealing the same release twice yields
// byte-identical artifacts — which is what lets the serving layer use
// a content hash as a stable ETag.
//
// A snapshot is untrusted network input. Read never returns a partial
// artifact: every structural violation — bad magic, unknown version,
// misplaced sections, digest mismatch, missing or invalid signature,
// metadata that disagrees with the embedded arrays, trailing garbage —
// fails with an error wrapping ErrInvalid before the caller sees any
// data. Write applies the same meta and length rules, so it cannot
// emit an artifact Read refuses.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph/index"
)

// Container constants. The magic doubles as a format fingerprint: the
// trailing byte is the major generation, bumped only when the layout
// changes incompatibly enough that even the header cannot be parsed.
const (
	magic = "DPGSNAP\x01"

	// FormatVersion is the newest container version. Version 2 added
	// the hub-label sections; version 3 seals an "hl" index as its label
	// arena alone, without the hierarchy it was built from; version 4
	// adds the sources form of hub labels. Write emits version 3 or 4
	// (see SealVersion), and the reader accepts every version down to
	// MinFormatVersion: version-1 artifacts (CH/ALT/no index) unseal
	// unchanged, and a version-2 "hl" artifact's CH sections are
	// digest-verified, then dropped.
	FormatVersion = 4

	// MinFormatVersion is the oldest container version Read accepts.
	MinFormatVersion = 1

	headerSize     = 48
	tableEntrySize = 56
	sectionAlign   = 64

	// maxSections bounds the section table before any allocation
	// happens on behalf of the (untrusted) header.
	maxSections = 16

	// maxMetaLen and maxManifestLen bound the two JSON blobs; both are
	// small in practice (hundreds of bytes) and a length beyond this is
	// an attack, not a release.
	maxMetaLen     = 1 << 20
	maxManifestLen = 1 << 20

	// sectionMeta is the kind of the meta section, which must come
	// first so every later section's length is known before it arrives.
	sectionMeta = 1
)

// sectionSpec is one row of the section table.
type sectionSpec struct {
	kind uint32
	name string
	// carried reports whether an artifact with meta m has the section.
	carried func(m *Meta) bool
	// count is the section's exact element count, from meta and the
	// arrays of earlier sections; ok is false when those fix none.
	count func(a *Artifact) (n uint64, ok bool)
	// array points at the artifact's slice for the section: a *[]byte,
	// *[]uint32, *[]int32, *[]int64 or *[]float64. Nil for meta.
	array func(a *Artifact) any
	// arena marks the label-arena rows, which an artifact whose labels
	// are sealed as sources holds too, rebuilt from them, while the
	// container leaves them out.
	arena bool
}

// sectionTable lists every section kind in file order; see the package
// comment for the same table in prose.
var sectionTable = [...]sectionSpec{
	{kind: sectionMeta, name: "meta", carried: always},
	{kind: 2, name: "edge_from", carried: always, count: edgeCount, array: func(a *Artifact) any { return &a.EdgeFrom }},
	{kind: 3, name: "edge_to", carried: always, count: edgeCount, array: func(a *Artifact) any { return &a.EdgeTo }},
	{kind: 4, name: "weights", carried: always, count: edgeCount, array: func(a *Artifact) any { return &a.Weights }},
	{kind: 5, name: "ch_up_off", carried: carriesCH, count: offsetCount, array: func(a *Artifact) any { return &a.CHUpOff }},
	{kind: 6, name: "ch_up_to", carried: carriesCH, count: chArcs, array: func(a *Artifact) any { return &a.CHUpTo }},
	{kind: 7, name: "ch_up_wt", carried: carriesCH, count: chArcs, array: func(a *Artifact) any { return &a.CHUpWt }},
	{kind: 8, name: "alt_landmarks", carried: indexIs("alt"), count: landmarkRows, array: func(a *Artifact) any { return &a.ALTLandmarks }},
	{kind: 9, name: "hl_lab_off", carried: carriesArena, count: offsetCount, array: func(a *Artifact) any { return &a.HLLabOff }, arena: true},
	{kind: 10, name: "hl_lab_hub", carried: carriesArena, count: hlEntries, array: func(a *Artifact) any { return &a.HLLabHub }, arena: true},
	{kind: 11, name: "hl_lab_dist", carried: carriesArena, count: hlEntries, array: func(a *Artifact) any { return &a.HLLabDist }, arena: true},
	{kind: 12, name: "hl_lab_len", carried: carriesSources, count: vertexCount, array: func(a *Artifact) any { return &a.HLLabLen }},
	{kind: 13, name: "hl_src", carried: carriesSources, count: sourceBytes, array: func(a *Artifact) any { return &a.HLSrc }},
}

func always(*Meta) bool { return true }

func indexIs(kind string) func(*Meta) bool {
	return func(m *Meta) bool { return m.Index == kind }
}

// carriesCH: a "ch" index, or an "hl" index sealed at format version
// 2 or as sources, which both store the hierarchy its labels were built
// from.
func carriesCH(m *Meta) bool {
	return m.Index == "ch" || (m.Index == "hl" && (m.FormatVersion == 2 || m.HLSourceBytes > 0))
}

// carriesSources: hub labels sealed as sources (version 4).
func carriesSources(m *Meta) bool { return m.Index == "hl" && m.HLSourceBytes > 0 }

// carriesArena: hub labels sealed as their (hub, distance) arena.
func carriesArena(m *Meta) bool { return m.Index == "hl" && m.HLSourceBytes == 0 }

func edgeCount(a *Artifact) (uint64, bool)   { return uint64(a.Meta.M), true }
func vertexCount(a *Artifact) (uint64, bool) { return uint64(a.Meta.N), true }
func offsetCount(a *Artifact) (uint64, bool) { return uint64(a.Meta.N) + 1, true }
func sourceBytes(a *Artifact) (uint64, bool) { return uint64(a.Meta.HLSourceBytes), true }
func landmarkRows(a *Artifact) (uint64, bool) {
	return uint64(a.Meta.Landmarks) * uint64(a.Meta.N), true
}
func chArcs(a *Artifact) (uint64, bool)    { return arenaLen(a.CHUpOff, a.Meta.N) }
func hlEntries(a *Artifact) (uint64, bool) { return arenaLen(a.HLLabOff, a.Meta.N) }

// arenaLen is the entry count an offset array fixes: its last entry,
// provided the array has its N+1 entries and that entry is not
// negative.
func arenaLen[T int32 | int64](off []T, n int) (uint64, bool) {
	if len(off) != n+1 || off[n] < 0 {
		return 0, false
	}
	return uint64(off[n]), true
}

// specOf returns the table row of a section kind, or nil for a kind
// no version of the format defines.
func specOf(kind uint32) *sectionSpec {
	for i := range sectionTable {
		if sectionTable[i].kind == kind {
			return &sectionTable[i]
		}
	}
	return nil
}

// size is the exact byte length of the section in artifact a, whose
// meta and earlier arrays are already known: the rule Write checks an
// array against and Read checks a table entry against.
func (s *sectionSpec) size(a *Artifact) (uint64, error) {
	if !s.carried(&a.Meta) {
		return 0, invalidf("%s section present but meta declares index %q", s.name, a.Meta.Index)
	}
	n, ok := s.count(a)
	width := elemWidth(s.array(a))
	if !ok || n > math.MaxInt64/width {
		return 0, invalidf("%s section has no valid length: its offsets are missing or end out of range", s.name)
	}
	return n * width, nil
}

// elemWidth is the encoded byte width of one element of the slice p
// points at.
func elemWidth(p any) uint64 {
	switch p.(type) {
	case *[]byte:
		return 1
	case *[]uint32, *[]int32:
		return 4
	}
	return 8
}

// arrayLen is the element count of the slice p points at.
func arrayLen(p any) int {
	switch s := p.(type) {
	case *[]byte:
		return len(*s)
	case *[]uint32:
		return len(*s)
	case *[]int32:
		return len(*s)
	case *[]int64:
		return len(*s)
	case *[]float64:
		return len(*s)
	}
	panic(fmt.Sprintf("snapshot: section array of type %T", p))
}

// Sentinel errors. Every reader failure wraps ErrInvalid; the more
// specific sentinels additionally identify the three failure classes
// callers branch on (report differently, retry with another key, or
// refuse an upgrade path).
var (
	// ErrInvalid is the base class of every malformed-artifact error.
	ErrInvalid = errors.New("snapshot: invalid artifact")

	// ErrUnknownVersion marks an artifact written by an incompatible
	// (usually newer) format version.
	ErrUnknownVersion = errors.New("unknown format version")

	// ErrDigestMismatch marks a section whose bytes do not hash to the
	// digest the table and manifest claim.
	ErrDigestMismatch = errors.New("section digest mismatch")

	// ErrBadSignature marks a missing or unverifiable manifest
	// signature when verification was requested.
	ErrBadSignature = errors.New("bad signature")
)

// invalidf builds an ErrInvalid-wrapping error.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Meta is the JSON document stored as the artifact's first section: the
// release's privacy metadata and the shape of every array section. The
// reader cross-checks each field against the arrays themselves, so a
// receipt cannot claim a different release than the one embedded.
//
// Deliberately absent: the mechanism seed and any private input. A
// snapshot carries only the released (public) artifact.
type Meta struct {
	// FormatVersion restates the container version inside the signed
	// payload chain.
	FormatVersion int `json:"format_version"`
	// Writer identifies the producing build (module version + VCS
	// revision) for forensics.
	Writer string `json:"writer,omitempty"`

	// Mechanism, Epsilon, Delta, and NoiseScale restate the release's
	// privacy parameters; they must agree with the embedded Receipt.
	Mechanism  string  `json:"mechanism"`
	Epsilon    float64 `json:"epsilon"`
	Delta      float64 `json:"delta,omitempty"`
	NoiseScale float64 `json:"noise_scale"`

	// N and M are the topology's vertex and edge counts; the edge and
	// weight sections must have exactly M entries with endpoints in
	// [0, N).
	N int `json:"n"`
	M int `json:"m"`
	// Directed records the topology's orientation (index sections
	// require undirected).
	Directed bool `json:"directed,omitempty"`

	// Index is the embedded query index kind: "" (none), "ch", "alt",
	// or "hl" (format version 2+). It dictates which index sections
	// must be present: CH for "ch", ALT for "alt", and for "hl" the
	// label arena or, when HLSourceBytes is set, the hierarchy and the
	// label sources.
	Index string `json:"index,omitempty"`
	// Landmarks is the ALT row count (0 unless Index == "alt").
	Landmarks int `json:"landmarks,omitempty"`
	// HLSourceBytes is the length of the hl_src section when hub labels
	// are sealed as sources (format version 4), and 0 when they are
	// sealed as an arena. Declaring it here puts the stream's length
	// under the signature, so its table entry is checked, not trusted.
	HLSourceBytes int64 `json:"hl_source_bytes,omitempty"`

	// Receipt is the release's ledger entry, verbatim. It is carried —
	// not re-charged — so a restored replica serves under the original
	// budget accounting.
	Receipt json.RawMessage `json:"receipt"`
}

// Artifact is the decoded in-memory form of a sealed release: the Meta
// document plus the flat arrays of every section. Write serializes it;
// Read reconstructs it only after the whole container verifies.
type Artifact struct {
	Meta Meta

	// EdgeFrom/EdgeTo/Weights are the released graph: edge i joins
	// EdgeFrom[i]-EdgeTo[i] with released weight Weights[i].
	EdgeFrom []uint32
	EdgeTo   []uint32
	Weights  []float64

	// The index arrays, named after their sections; SetIndex and Index
	// move them to and from index.FlatIndex. CHUpOff/CHUpTo/CHUpWt are
	// the contraction-hierarchy upward CSR (Meta.Index == "ch", or "hl"
	// sealed as sources).
	CHUpOff []int32
	CHUpTo  []int32
	CHUpWt  []float64

	// ALTLandmarks holds Meta.Landmarks rows of N landmark distances
	// (Meta.Index == "alt").
	ALTLandmarks []float64

	// HLLabOff/HLLabHub/HLLabDist are the hub-label arena (Meta.Index
	// == "hl"): vertex v's label is
	// HLLabHub/HLLabDist[HLLabOff[v]:HLLabOff[v+1]], hubs ascending.
	// Labels sealed as sources hold the arena too, rebuilt by Read, but
	// Write seals the sources and leaves the arena out.
	HLLabOff  []int64
	HLLabHub  []int32
	HLLabDist []float64

	// HLLabLen and HLSrc are the sources form of the labels (Meta.
	// HLSourceBytes > 0): each label's length, and two uvarints per
	// entry (index.HLSources).
	HLLabLen []uint32
	HLSrc    []byte

	// rebuilt is the flat index Read rebuilt the labels into, which
	// index.Rehydrate takes without scanning again.
	rebuilt *index.FlatIndex
}

// SetIndex stores f's kind and arrays in the artifact; the slices are
// aliased, not copied. Hub labels that carry their hierarchy are sealed
// as sources, which SetIndex derives here (index.HLSources), declaring
// their length in the meta; labels without one are sealed as an arena.
func (a *Artifact) SetIndex(f *index.FlatIndex) error {
	a.Meta.Index, a.Meta.Landmarks = f.Kind, f.Landmarks
	a.CHUpOff, a.CHUpTo, a.CHUpWt = f.UpOff, f.UpTo, f.UpWt
	a.ALTLandmarks = f.LD
	a.HLLabOff, a.HLLabHub, a.HLLabDist = f.LabOff, f.LabHub, f.LabDist
	a.HLLabLen, a.HLSrc, a.Meta.HLSourceBytes, a.rebuilt = nil, nil, 0, nil
	if f.Kind == "hl" && f.UpOff != nil {
		lens, src, err := index.HLSources(f)
		if err != nil {
			return err
		}
		a.HLLabLen, a.HLSrc, a.Meta.HLSourceBytes = lens, src, int64(len(src))
	}
	return nil
}

// SealVersion is the container version an artifact with meta m is
// sealed at, which m must declare: the oldest that carries it, so a
// reader one version behind still reads every artifact that does not
// need the newest form. Only hub labels sealed as sources need
// version 4.
func SealVersion(m *Meta) int {
	if m.HLSourceBytes > 0 {
		return 4
	}
	return 3
}

// Index returns the artifact's index arrays in the form
// index.Rehydrate takes, or nil when it carries no index; the slices
// alias the artifact. While the arrays are still the ones Read
// rebuilt hub labels into, it returns the flat index that rebuild
// validated, which Rehydrate takes without scanning it again.
func (a *Artifact) Index() *index.FlatIndex {
	if a.Meta.Index == "" {
		return nil
	}
	f := &index.FlatIndex{
		Kind: a.Meta.Index, UpOff: a.CHUpOff, UpTo: a.CHUpTo, UpWt: a.CHUpWt,
		Landmarks: a.Meta.Landmarks, LD: a.ALTLandmarks,
		LabOff: a.HLLabOff, LabHub: a.HLLabHub, LabDist: a.HLLabDist,
	}
	if r := a.rebuilt; r != nil && r.Kind == f.Kind &&
		same(r.UpOff, f.UpOff) && same(r.UpTo, f.UpTo) && same(r.UpWt, f.UpWt) &&
		same(r.LabOff, f.LabOff) && same(r.LabHub, f.LabHub) && same(r.LabDist, f.LabDist) {
		return r
	}
	return f
}

// same reports whether x and y are the same slice: one backing array,
// one length.
func same[T any](x, y []T) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// SectionInfo describes one section as recorded in the container.
type SectionInfo struct {
	Kind   uint32 `json:"kind"`
	Name   string `json:"name"`
	Offset uint64 `json:"offset"`
	Length uint64 `json:"length"`
	SHA256 string `json:"sha256"`
}

// Info reports what Read found around the payload: the container
// version, the writer's build string, the section layout, and whether
// the artifact carried — and passed — a signature.
type Info struct {
	FormatVersion uint32
	Writer        string
	Sections      []SectionInfo
	// Signed reports whether the artifact carries a signature at all;
	// Verified reports whether Read checked it against a caller-
	// provided key (Read fails rather than setting Verified false when
	// a requested verification does not pass).
	Signed   bool
	Verified bool
}

// manifest is the signed JSON document near the end of the container.
// It restates the format version, the writer, and every section-table
// entry (including digests), so a signature over its bytes
// authenticates the full artifact.
type manifest struct {
	FormatVersion uint32        `json:"format_version"`
	Writer        string        `json:"writer,omitempty"`
	Sections      []SectionInfo `json:"sections"`
}

// checkMeta validates the meta document on its own: counts in range,
// a known index kind for the container version, a receipt present.
// Write and Read both apply it.
func checkMeta(m *Meta, version uint32) error {
	if m.FormatVersion != int(version) {
		return invalidf("meta declares format version %d in a version-%d container", m.FormatVersion, version)
	}
	if m.N < 0 || uint64(m.N) > math.MaxUint32 {
		return invalidf("meta vertex count %d outside [0, 2^32)", m.N)
	}
	if m.M < 0 || uint64(m.M) > math.MaxUint32 {
		return invalidf("meta edge count %d outside [0, 2^32)", m.M)
	}
	switch m.Index {
	case "", "ch":
	case "hl":
		if version < 2 {
			return invalidf("meta declares an HL index in a version-%d container (hub labels need version 2)", version)
		}
		if m.HLSourceBytes != 0 && version < 4 {
			return invalidf("meta declares hub-label sources in a version-%d container (sources need version 4)", version)
		}
	case "alt":
		if m.Landmarks < 1 || m.Landmarks > index.MaxLandmarks {
			return invalidf("meta landmark count %d outside [1, %d]", m.Landmarks, index.MaxLandmarks)
		}
	default:
		return invalidf("meta declares unknown index kind %q", m.Index)
	}
	if m.Index != "" && m.Directed {
		return invalidf("meta declares a %s index on a directed topology", m.Index)
	}
	if m.Index != "alt" && m.Landmarks != 0 {
		return invalidf("meta declares %d landmarks without an ALT index", m.Landmarks)
	}
	if m.HLSourceBytes < 0 || (m.Index != "hl" && m.HLSourceBytes != 0) {
		return invalidf("meta declares %d hub-label source bytes for index %q", m.HLSourceBytes, m.Index)
	}
	if m.NoiseScale < 0 || math.IsNaN(m.NoiseScale) || math.IsInf(m.NoiseScale, 0) {
		return invalidf("meta noise scale %g is not a finite nonnegative number", m.NoiseScale)
	}
	if m.Epsilon < 0 || math.IsNaN(m.Epsilon) || math.IsInf(m.Epsilon, 0) {
		return invalidf("meta epsilon %g is not a finite nonnegative number", m.Epsilon)
	}
	if len(m.Receipt) == 0 {
		return invalidf("meta carries no receipt")
	}
	return nil
}

// checkEdges checks the released graph against the invariants the
// sealed oracle relies on: endpoints in [0, N), weights nonnegative.
// Deeper index-array validation (offset monotonicity, target bounds)
// belongs to index.Rehydrate, which re-checks everything it consumes.
func checkEdges(a *Artifact) error {
	n := uint64(a.Meta.N)
	for i := range a.EdgeFrom {
		if uint64(a.EdgeFrom[i]) >= n || uint64(a.EdgeTo[i]) >= n {
			return invalidf("edge %d joins (%d, %d) outside [0, %d)", i, a.EdgeFrom[i], a.EdgeTo[i], n)
		}
	}
	for i, w := range a.Weights {
		if w < 0 || math.IsNaN(w) {
			return invalidf("released weight %d is %g; sealed weights are clamped nonnegative", i, w)
		}
	}
	return nil
}

// align64 rounds an offset up to the next 64-byte boundary.
func align64(off uint64) uint64 {
	return (off + sectionAlign - 1) &^ uint64(sectionAlign-1)
}
