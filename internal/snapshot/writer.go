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
// header-side table needs, one to emit the bytes. It first checks the
// artifact against the rules Read enforces — the meta document, each
// section's presence and length, the edge invariants — so a malformed
// artifact is an error wrapping ErrInvalid here, not a time bomb for
// readers. It emits version SealVersion(&art.Meta), which art.Meta must
// declare, so one release seals to one byte string; other versions are
// read only. Hub labels sealed as sources are written as their
// sources: the arena the artifact also holds is what they encode, and
// stays out of the container.
func Write(w io.Writer, art *Artifact, opts WriteOptions) error {
	version := SealVersion(&art.Meta)
	if art.Meta.FormatVersion != version {
		return invalidf("meta declares format version %d; this artifact is sealed at version %d", art.Meta.FormatVersion, version)
	}
	if err := checkMeta(&art.Meta, uint32(version)); err != nil {
		return err
	}
	meta, err := metaSection(art)
	if err != nil {
		return err
	}
	secs := []section{meta}
	for i := 1; i < len(sectionTable); i++ {
		s := &sectionTable[i]
		if !s.carried(&art.Meta) {
			if arrayLen(s.array(art)) != 0 && !(s.arena && carriesSources(&art.Meta)) {
				return invalidf("%s array is not empty but meta declares index %q", s.name, art.Meta.Index)
			}
			continue
		}
		want, err := s.size(art)
		if err != nil {
			return err
		}
		sec := arraySection(s, art)
		if sec.length != want {
			return invalidf("%s array is %d bytes, meta requires %d", s.name, sec.length, want)
		}
		secs = append(secs, sec)
	}
	if err := checkEdges(art); err != nil {
		return err
	}
	return writeContainer(w, uint32(version), art.Meta.Writer, secs, opts.SigningKey)
}

// metaSection encodes art's meta document as the first section.
func metaSection(art *Artifact) (section, error) {
	metaJSON, err := json.Marshal(&art.Meta)
	if err != nil {
		return section{}, fmt.Errorf("snapshot: encoding meta: %w", err)
	}
	if len(metaJSON) > maxMetaLen {
		return section{}, fmt.Errorf("snapshot: meta document is %d bytes, exceeding the %d-byte cap", len(metaJSON), maxMetaLen)
	}
	return section{spec: &sectionTable[0], length: uint64(len(metaJSON)), encode: func(w io.Writer) error {
		_, err := w.Write(metaJSON)
		return err
	}}, nil
}

// arraySection is the section s carrying art's array for it.
func arraySection(s *sectionSpec, art *Artifact) section {
	p := s.array(art)
	return section{spec: s, length: uint64(arrayLen(p)) * elemWidth(p), encode: func(w io.Writer) error {
		return encodeArray(w, p)
	}}
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
	man := manifest{FormatVersion: version, Writer: writer}
	for i := range secs {
		s := &secs[i]
		h := sha256.New()
		if err := s.encode(h); err != nil {
			return fmt.Errorf("snapshot: hashing %s section: %w", s.spec.name, err)
		}
		h.Sum(s.digest[:0])
		man.Sections = append(man.Sections, SectionInfo{
			Kind:   s.spec.kind,
			Name:   s.spec.name,
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
		binary.LittleEndian.PutUint32(ent[0:], s.spec.kind)
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
				s.spec.name, cw.n-s.offset, s.length)
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

// section pairs one table entry with its payload encoder.
type section struct {
	spec   *sectionSpec
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

// encodeArray streams the slice p points at to w as little-endian
// elements, one chunk-sized buffer at a time; the element type is
// switched on once per chunk.
func encodeArray(w io.Writer, p any) error {
	buf := make([]byte, chunkBytes)
	width := int(elemWidth(p))
	per := chunkBytes / width
	for i, n := 0, arrayLen(p); i < n; i += per {
		k := min(per, n-i)
		switch s := p.(type) {
		case *[]byte:
			copy(buf, (*s)[i:i+k])
		case *[]uint32:
			for j, v := range (*s)[i : i+k] {
				binary.LittleEndian.PutUint32(buf[4*j:], v)
			}
		case *[]int32:
			for j, v := range (*s)[i : i+k] {
				binary.LittleEndian.PutUint32(buf[4*j:], uint32(v))
			}
		case *[]int64:
			for j, v := range (*s)[i : i+k] {
				binary.LittleEndian.PutUint64(buf[8*j:], uint64(v))
			}
		case *[]float64:
			for j, v := range (*s)[i : i+k] {
				binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
			}
		}
		if _, err := w.Write(buf[:k*width]); err != nil {
			return err
		}
	}
	return nil
}
