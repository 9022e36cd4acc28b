// Package snapshot implements the sealed release container: a
// versioned binary artifact that carries one materialized release —
// flat little-endian CSR arrays, the released weight vector, the
// query-index arrays (CH upward graph, hub-label arena, or ALT
// landmark rows), and the
// JSON privacy receipt — between processes and machines. The container
// is what makes a release shippable: materializing spends privacy
// budget and runs contraction once, and every replica that unseals the
// artifact gets a bit-identical oracle for free.
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
// data.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Container constants. The magic doubles as a format fingerprint: the
// trailing byte is the major generation, bumped only when the layout
// changes incompatibly enough that even the header cannot be parsed.
const (
	magic = "DPGSNAP\x01"

	// FormatVersion is the container version this package writes, the
	// only one Write emits. Version 2 added the hub-label sections; version 3 seals
	// an "hl" index as its labels alone, without the hierarchy they were
	// built from. The reader still accepts every version down to
	// MinFormatVersion: version-1 artifacts (CH/ALT/no index) unseal
	// unchanged, and a version-2 "hl" artifact's CH sections are
	// digest-verified, then dropped.
	FormatVersion = 3

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
)

// Section kinds, in their mandatory file order. Kinds are strictly
// increasing within an artifact, and the meta section always comes
// first so the reader knows the expected shape of every later section
// before reaching it.
const (
	sectionMeta         = 1 // JSON Meta document
	sectionEdgeFrom     = 2 // uint32 per edge: source vertex
	sectionEdgeTo       = 3 // uint32 per edge: target vertex
	sectionWeights      = 4 // float64 per edge: released (clamped) weight
	sectionCHUpOff      = 5 // int32 x (N+1): CH upward CSR offsets
	sectionCHUpTo       = 6 // int32 per upward edge: CH target
	sectionCHUpWt       = 7 // float64 per upward edge: CH weight
	sectionALTLandmarks = 8 // float64 x (landmarks*N): ALT distance rows

	// Hub-label sections (format version 2+).
	sectionHLLabOff  = 9  // int64 x (N+1): label arena offsets
	sectionHLLabHub  = 10 // int32 per label entry: hub vertex
	sectionHLLabDist = 11 // float64 per label entry: hub distance
)

// sectionName maps a kind to its manifest name; unknown kinds have no
// name and are rejected by the reader.
func sectionName(kind uint32) string {
	switch kind {
	case sectionMeta:
		return "meta"
	case sectionEdgeFrom:
		return "edge_from"
	case sectionEdgeTo:
		return "edge_to"
	case sectionWeights:
		return "weights"
	case sectionCHUpOff:
		return "ch_up_off"
	case sectionCHUpTo:
		return "ch_up_to"
	case sectionCHUpWt:
		return "ch_up_wt"
	case sectionALTLandmarks:
		return "alt_landmarks"
	case sectionHLLabOff:
		return "hl_lab_off"
	case sectionHLLabHub:
		return "hl_lab_hub"
	case sectionHLLabDist:
		return "hl_lab_dist"
	}
	return ""
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
	// must be present: CH for "ch", ALT for "alt", the label arena for
	// "hl".
	Index string `json:"index,omitempty"`
	// Landmarks is the ALT row count (0 unless Index == "alt").
	Landmarks int `json:"landmarks,omitempty"`

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

	// CHUpOff/CHUpTo/CHUpWt are the contraction-hierarchy upward CSR
	// (present iff Meta.Index == "ch").
	CHUpOff []int32
	CHUpTo  []int32
	CHUpWt  []float64

	// ALTLandmarks holds Meta.Landmarks rows of N landmark distances
	// (present iff Meta.Index == "alt").
	ALTLandmarks []float64

	// HLLabOff/HLLabHub/HLLabDist are the hub-label arena (present iff
	// Meta.Index == "hl"): vertex v's label is
	// HLLabHub/HLLabDist[HLLabOff[v]:HLLabOff[v+1]], hubs ascending.
	HLLabOff  []int64
	HLLabHub  []int32
	HLLabDist []float64
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

// align64 rounds an offset up to the next 64-byte boundary.
func align64(off uint64) uint64 {
	return (off + sectionAlign - 1) &^ uint64(sectionAlign-1)
}
