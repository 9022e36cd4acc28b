package snapshot

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// WriteOptions configures Write.
type WriteOptions struct {
	// SigningKey, when non-nil, signs the manifest with ed25519;
	// consumers holding the public key can then verify provenance.
	// Signing is deterministic, so re-sealing the same release yields
	// byte-identical artifacts.
	SigningKey ed25519.PrivateKey
}

// chunkBytes sizes the encode/decode scratch buffer: large enough to
// amortize per-Write overhead, small enough to keep the streaming
// promise (memory use independent of artifact size).
const chunkBytes = 64 * 1024

// Write serializes the artifact to w in container format. The arrays
// are streamed through a fixed-size scratch buffer — nothing
// proportional to the artifact is buffered — in two passes over the
// in-memory arrays: one to compute the section digests that the
// header-side table needs, one to emit the bytes. It validates the
// artifact's internal consistency first so a malformed artifact is an
// error here, not a time bomb for readers. It always emits version
// FormatVersion, which art.Meta must declare; older versions are read
// only.
func Write(w io.Writer, art *Artifact, opts WriteOptions) error {
	if art.Meta.FormatVersion != FormatVersion {
		return fmt.Errorf("snapshot: meta declares format version %d, writing %d", art.Meta.FormatVersion, FormatVersion)
	}
	if err := validateArtifact(art); err != nil {
		return err
	}
	secs, err := baseSections(art)
	if err != nil {
		return err
	}
	secs = append(secs, indexSections(art)...)
	return writeContainer(w, FormatVersion, art.Meta.Writer, secs, opts.SigningKey)
}

// baseSections are the sections every artifact carries: meta, edge
// endpoints and weights.
func baseSections(art *Artifact) ([]section, error) {
	metaJSON, err := json.Marshal(&art.Meta)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding meta: %w", err)
	}
	if len(metaJSON) > maxMetaLen {
		return nil, fmt.Errorf("snapshot: meta document is %d bytes, exceeding the %d-byte cap", len(metaJSON), maxMetaLen)
	}
	return []section{
		{kind: sectionMeta, length: uint64(len(metaJSON)), encode: encodeBytes(metaJSON)},
		{kind: sectionEdgeFrom, length: 4 * uint64(len(art.EdgeFrom)), encode: encodeU32(art.EdgeFrom)},
		{kind: sectionEdgeTo, length: 4 * uint64(len(art.EdgeTo)), encode: encodeU32(art.EdgeTo)},
		{kind: sectionWeights, length: 8 * uint64(len(art.Weights)), encode: encodeF64(art.Weights)},
	}, nil
}

// indexSections are the sections of art's index kind: the CH upward
// CSR, the ALT landmark rows, or the hub-label arena.
func indexSections(art *Artifact) []section {
	switch art.Meta.Index {
	case "ch":
		return []section{
			{kind: sectionCHUpOff, length: 4 * uint64(len(art.CHUpOff)), encode: encodeI32(art.CHUpOff)},
			{kind: sectionCHUpTo, length: 4 * uint64(len(art.CHUpTo)), encode: encodeI32(art.CHUpTo)},
			{kind: sectionCHUpWt, length: 8 * uint64(len(art.CHUpWt)), encode: encodeF64(art.CHUpWt)},
		}
	case "alt":
		return []section{
			{kind: sectionALTLandmarks, length: 8 * uint64(len(art.ALTLandmarks)), encode: encodeF64(art.ALTLandmarks)},
		}
	case "hl":
		return []section{
			{kind: sectionHLLabOff, length: 8 * uint64(len(art.HLLabOff)), encode: encodeI64(art.HLLabOff)},
			{kind: sectionHLLabHub, length: 4 * uint64(len(art.HLLabHub)), encode: encodeI32(art.HLLabHub)},
			{kind: sectionHLLabDist, length: 8 * uint64(len(art.HLLabDist)), encode: encodeF64(art.HLLabDist)},
		}
	}
	return nil
}

// writeContainer lays out secs (meta first, kinds strictly increasing),
// digests them, builds and optionally signs the manifest, and streams
// the container to w.
func writeContainer(w io.Writer, version uint32, writer string, secs []section, key ed25519.PrivateKey) error {
	// Fix the layout: sections start 64-byte-aligned after the table,
	// the manifest follows the last section's padding, the signature
	// follows the manifest.
	off := uint64(len(magic)) + headerSize + tableEntrySize*uint64(len(secs))
	for i := range secs {
		off = align64(off)
		secs[i].offset = off
		off += secs[i].length
	}
	manifestOff := align64(off)

	// Pass 1: digest each section without emitting anything.
	for i := range secs {
		h := sha256.New()
		if err := secs[i].encode(h); err != nil {
			return fmt.Errorf("snapshot: hashing %s section: %w", sectionName(secs[i].kind), err)
		}
		h.Sum(secs[i].digest[:0])
	}

	man := manifest{FormatVersion: version, Writer: writer}
	for _, s := range secs {
		man.Sections = append(man.Sections, SectionInfo{
			Kind:   s.kind,
			Name:   sectionName(s.kind),
			Offset: s.offset,
			Length: s.length,
			SHA256: hex.EncodeToString(s.digest[:]),
		})
	}
	manifestJSON, err := json.Marshal(&man)
	if err != nil {
		return fmt.Errorf("snapshot: encoding manifest: %w", err)
	}
	if len(manifestJSON) > maxManifestLen {
		return fmt.Errorf("snapshot: manifest is %d bytes, exceeding the %d-byte cap", len(manifestJSON), maxManifestLen)
	}
	var sig []byte
	if key != nil {
		if len(key) != ed25519.PrivateKeySize {
			return fmt.Errorf("snapshot: signing key has %d bytes, want %d", len(key), ed25519.PrivateKeySize)
		}
		sig = ed25519.Sign(key, manifestJSON)
	}
	sigOff := manifestOff + uint64(len(manifestJSON))

	// Pass 2: emit. The counting writer asserts that what lands on the
	// wire matches the layout the header promised.
	cw := &countingWriter{w: w}
	if _, err := cw.Write([]byte(magic)); err != nil {
		return err
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], version)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(secs)))
	binary.LittleEndian.PutUint64(hdr[8:], manifestOff)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(manifestJSON)))
	binary.LittleEndian.PutUint64(hdr[24:], sigOff)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(sig)))
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	var ent [tableEntrySize]byte
	for _, s := range secs {
		binary.LittleEndian.PutUint32(ent[0:], s.kind)
		binary.LittleEndian.PutUint32(ent[4:], 0)
		binary.LittleEndian.PutUint64(ent[8:], s.offset)
		binary.LittleEndian.PutUint64(ent[16:], s.length)
		copy(ent[24:], s.digest[:])
		if _, err := cw.Write(ent[:]); err != nil {
			return err
		}
	}
	for _, s := range secs {
		if err := cw.pad(s.offset); err != nil {
			return err
		}
		if err := s.encode(cw); err != nil {
			return err
		}
		if cw.n != s.offset+s.length {
			return fmt.Errorf("snapshot: internal error: %s section wrote %d bytes, layout promised %d",
				sectionName(s.kind), cw.n-s.offset, s.length)
		}
	}
	if err := cw.pad(manifestOff); err != nil {
		return err
	}
	if _, err := cw.Write(manifestJSON); err != nil {
		return err
	}
	if len(sig) > 0 {
		if _, err := cw.Write(sig); err != nil {
			return err
		}
	}
	return nil
}

// validateArtifact checks the artifact's internal consistency: array
// lengths against Meta's counts, endpoints against N, index arrays
// against the declared index kind. Writers get a hard error instead of
// producing a container every reader would reject.
func validateArtifact(art *Artifact) error {
	m := art.Meta
	if m.N < 0 || uint64(m.N) > math.MaxUint32 {
		return fmt.Errorf("snapshot: vertex count %d outside [0, 2^32)", m.N)
	}
	if m.M < 0 || uint64(m.M) > math.MaxUint32 {
		return fmt.Errorf("snapshot: edge count %d outside [0, 2^32)", m.M)
	}
	if len(art.EdgeFrom) != m.M || len(art.EdgeTo) != m.M || len(art.Weights) != m.M {
		return fmt.Errorf("snapshot: edge arrays have %d/%d/%d entries for %d edges",
			len(art.EdgeFrom), len(art.EdgeTo), len(art.Weights), m.M)
	}
	for i := 0; i < m.M; i++ {
		if uint64(art.EdgeFrom[i]) >= uint64(m.N) || uint64(art.EdgeTo[i]) >= uint64(m.N) {
			return fmt.Errorf("snapshot: edge %d joins (%d, %d) outside [0, %d)", i, art.EdgeFrom[i], art.EdgeTo[i], m.N)
		}
	}
	for i, w := range art.Weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("snapshot: released weight %d is %g; sealed weights are clamped nonnegative", i, w)
		}
	}
	if m.Index != "ch" && len(art.CHUpOff)+len(art.CHUpTo)+len(art.CHUpWt) != 0 {
		return fmt.Errorf("snapshot: CH arrays present without a CH index")
	}
	if m.Index != "hl" && len(art.HLLabOff)+len(art.HLLabHub)+len(art.HLLabDist) != 0 {
		return fmt.Errorf("snapshot: hub-label arrays present without an HL index")
	}
	if m.Index != "alt" && (len(art.ALTLandmarks) != 0 || m.Landmarks != 0) {
		return fmt.Errorf("snapshot: ALT rows or landmark count without an ALT index")
	}
	if m.Index != "" && m.Directed {
		return fmt.Errorf("snapshot: %s index on a directed topology", m.Index)
	}
	switch m.Index {
	case "":
	case "ch":
		if len(art.CHUpOff) != m.N+1 {
			return fmt.Errorf("snapshot: CH offsets have %d entries for %d vertices (want %d)", len(art.CHUpOff), m.N, m.N+1)
		}
		if len(art.CHUpTo) != len(art.CHUpWt) {
			return fmt.Errorf("snapshot: CH upward arrays disagree: %d targets, %d weights", len(art.CHUpTo), len(art.CHUpWt))
		}
	case "hl":
		if len(art.HLLabOff) != m.N+1 {
			return fmt.Errorf("snapshot: HL label offsets have %d entries for %d vertices (want %d)", len(art.HLLabOff), m.N, m.N+1)
		}
		if len(art.HLLabHub) != len(art.HLLabDist) {
			return fmt.Errorf("snapshot: HL label arena disagrees: %d hubs, %d distances", len(art.HLLabHub), len(art.HLLabDist))
		}
		if last := art.HLLabOff[m.N]; last < 0 || last != int64(len(art.HLLabHub)) {
			return fmt.Errorf("snapshot: HL label offsets end at %d for %d arena entries", last, len(art.HLLabHub))
		}
	case "alt":
		if m.Landmarks < 0 || m.Landmarks > 1<<15 {
			return fmt.Errorf("snapshot: landmark count %d outside [0, %d]", m.Landmarks, 1<<15)
		}
		if len(art.ALTLandmarks) != m.Landmarks*m.N {
			return fmt.Errorf("snapshot: ALT rows have %d entries for %d landmarks x %d vertices", len(art.ALTLandmarks), m.Landmarks, m.N)
		}
	default:
		return fmt.Errorf("snapshot: unknown index kind %q", m.Index)
	}
	if len(m.Receipt) == 0 {
		return fmt.Errorf("snapshot: artifact carries no receipt")
	}
	return nil
}

// section pairs one table entry with its payload encoder.
type section struct {
	kind   uint32
	offset uint64
	length uint64
	digest [sha256.Size]byte
	encode func(io.Writer) error
}

// countingWriter tracks the absolute offset so the writer can assert
// layout invariants and emit alignment padding.
type countingWriter struct {
	w   io.Writer
	n   uint64
	pd  [sectionAlign]byte // zeros
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += uint64(n)
	if err != nil {
		c.err = fmt.Errorf("snapshot: write: %w", err)
	}
	return n, c.err
}

// pad writes zeros up to the target offset.
func (c *countingWriter) pad(target uint64) error {
	if c.n > target {
		return fmt.Errorf("snapshot: internal error: position %d past target offset %d", c.n, target)
	}
	for c.n < target {
		k := target - c.n
		if k > sectionAlign {
			k = sectionAlign
		}
		if _, err := c.Write(c.pd[:k]); err != nil {
			return err
		}
	}
	return nil
}

// The encoders stream a slice through the shared chunk size; each
// returns a closure so the section list can carry heterogeneous
// payloads uniformly.

func encodeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

func encodeU32(vals []uint32) func(io.Writer) error {
	return func(w io.Writer) error {
		buf := make([]byte, chunkBytes)
		for i := 0; i < len(vals); {
			n := 0
			for i < len(vals) && n+4 <= len(buf) {
				binary.LittleEndian.PutUint32(buf[n:], vals[i])
				n += 4
				i++
			}
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
		}
		return nil
	}
}

func encodeI32(vals []int32) func(io.Writer) error {
	return func(w io.Writer) error {
		buf := make([]byte, chunkBytes)
		for i := 0; i < len(vals); {
			n := 0
			for i < len(vals) && n+4 <= len(buf) {
				binary.LittleEndian.PutUint32(buf[n:], uint32(vals[i]))
				n += 4
				i++
			}
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
		}
		return nil
	}
}

func encodeI64(vals []int64) func(io.Writer) error {
	return func(w io.Writer) error {
		buf := make([]byte, chunkBytes)
		for i := 0; i < len(vals); {
			n := 0
			for i < len(vals) && n+8 <= len(buf) {
				binary.LittleEndian.PutUint64(buf[n:], uint64(vals[i]))
				n += 8
				i++
			}
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
		}
		return nil
	}
}

func encodeF64(vals []float64) func(io.Writer) error {
	return func(w io.Writer) error {
		buf := make([]byte, chunkBytes)
		for i := 0; i < len(vals); {
			n := 0
			for i < len(vals) && n+8 <= len(buf) {
				binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(vals[i]))
				n += 8
				i++
			}
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
		}
		return nil
	}
}
