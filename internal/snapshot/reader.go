package snapshot

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// ReadOptions configures Read.
type ReadOptions struct {
	// VerifyKey, when non-nil, requires the artifact to carry an
	// ed25519 signature that verifies against it; an unsigned artifact
	// or a signature by any other key fails with ErrBadSignature. When
	// nil, a present signature is reported in Info but not checked.
	VerifyKey ed25519.PublicKey
}

// Read parses and verifies a sealed artifact from r. The stream is
// consumed strictly sequentially (no seeking) through a fixed-size
// scratch buffer, and every array allocation grows as bytes actually
// arrive — a header lying about lengths cannot force a large
// allocation before the stream runs dry.
//
// Read is all-or-nothing: it returns the artifact only after the full
// container parses, every section digest matches, the signed manifest
// agrees with the section table, the signature verifies (when a key is
// given), the metadata is consistent with the arrays, and the stream
// ends exactly at the signature. Any violation returns a nil artifact
// and an error wrapping ErrInvalid.
func Read(r io.Reader, opts ReadOptions) (*Artifact, *Info, error) {
	cr := &countingReader{r: r}

	var mg [len(magic)]byte
	if err := readFull(cr, mg[:], "magic"); err != nil {
		return nil, nil, err
	}
	if string(mg[:]) != magic {
		return nil, nil, invalidf("bad magic %q", mg[:])
	}
	var hdr [headerSize]byte
	if err := readFull(cr, hdr[:], "header"); err != nil {
		return nil, nil, err
	}
	version := binary.LittleEndian.Uint32(hdr[0:])
	if version < MinFormatVersion || version > FormatVersion {
		return nil, nil, fmt.Errorf("%w: %w %d (this reader handles %d..%d)", ErrInvalid, ErrUnknownVersion, version, MinFormatVersion, FormatVersion)
	}
	sectionCount := binary.LittleEndian.Uint32(hdr[4:])
	manifestOff := binary.LittleEndian.Uint64(hdr[8:])
	manifestLen := binary.LittleEndian.Uint64(hdr[16:])
	sigOff := binary.LittleEndian.Uint64(hdr[24:])
	sigLen := binary.LittleEndian.Uint64(hdr[32:])
	if !bytes.Equal(hdr[40:], make([]byte, 8)) {
		return nil, nil, invalidf("nonzero reserved header bytes")
	}
	if sectionCount < 1 || sectionCount > maxSections {
		return nil, nil, invalidf("section count %d outside [1, %d]", sectionCount, maxSections)
	}
	if manifestLen == 0 || manifestLen > maxManifestLen {
		return nil, nil, invalidf("manifest length %d outside [1, %d]", manifestLen, maxManifestLen)
	}
	if sigLen != 0 && sigLen != ed25519.SignatureSize {
		return nil, nil, invalidf("signature length %d, want 0 or %d", sigLen, ed25519.SignatureSize)
	}
	if sigOff != manifestOff+manifestLen {
		return nil, nil, invalidf("signature at offset %d, want %d (directly after the manifest)", sigOff, manifestOff+manifestLen)
	}

	// Section table. The layout admits exactly one valid offset for
	// every section — the aligned position after its predecessor — so
	// the table's offsets are verified, not trusted: no gaps where
	// unaccounted bytes could hide.
	table := make([]SectionInfo, sectionCount)
	digests := make([][sha256.Size]byte, sectionCount)
	off := uint64(len(magic)) + headerSize + tableEntrySize*uint64(sectionCount)
	var ent [tableEntrySize]byte
	for i := range table {
		if err := readFull(cr, ent[:], "section table"); err != nil {
			return nil, nil, err
		}
		kind := binary.LittleEndian.Uint32(ent[0:])
		if sectionName(kind) == "" {
			return nil, nil, invalidf("section %d has unknown kind %d", i, kind)
		}
		if binary.LittleEndian.Uint32(ent[4:]) != 0 {
			return nil, nil, invalidf("section %d has nonzero reserved field", i)
		}
		if i == 0 && kind != sectionMeta {
			return nil, nil, invalidf("first section has kind %d, want meta", kind)
		}
		if i > 0 && kind <= table[i-1].Kind {
			return nil, nil, invalidf("section kinds not strictly increasing at entry %d", i)
		}
		secOff := binary.LittleEndian.Uint64(ent[8:])
		secLen := binary.LittleEndian.Uint64(ent[16:])
		if secLen > math.MaxInt64-off || off > math.MaxInt64 {
			return nil, nil, invalidf("section %d length %d overflows the layout", i, secLen)
		}
		off = align64(off)
		if secOff != off {
			return nil, nil, invalidf("section %d at offset %d, layout requires %d", i, secOff, off)
		}
		copy(digests[i][:], ent[24:])
		table[i] = SectionInfo{
			Kind:   kind,
			Name:   sectionName(kind),
			Offset: secOff,
			Length: secLen,
			SHA256: hex.EncodeToString(ent[24 : 24+sha256.Size]),
		}
		off = secOff + secLen
	}
	if manifestOff != align64(off) {
		return nil, nil, invalidf("manifest at offset %d, layout requires %d", manifestOff, align64(off))
	}

	// Sections, in table order. The meta section decodes first, fixing
	// the exact byte length of every later section; a section that
	// disagrees is rejected before its payload is interpreted.
	art := &Artifact{}
	for i, sec := range table {
		if err := cr.skipPadding(sec.Offset); err != nil {
			return nil, nil, err
		}
		h := sha256.New()
		body := io.TeeReader(io.LimitReader(cr, int64(sec.Length)), h)
		if sec.Kind == sectionMeta {
			if sec.Length > maxMetaLen {
				return nil, nil, invalidf("meta section is %d bytes, exceeding the %d-byte cap", sec.Length, maxMetaLen)
			}
			metaJSON := make([]byte, sec.Length)
			if err := readFull(body, metaJSON, "meta section"); err != nil {
				return nil, nil, err
			}
			dec := json.NewDecoder(bytes.NewReader(metaJSON))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&art.Meta); err != nil {
				return nil, nil, invalidf("meta section: %v", err)
			}
			if err := checkMeta(&art.Meta, version); err != nil {
				return nil, nil, err
			}
		} else {
			want, ok := expectedLength(&art.Meta, sec.Kind, art)
			if !ok {
				return nil, nil, invalidf("%s section present but meta declares index %q", sec.Name, art.Meta.Index)
			}
			if sec.Length != want {
				return nil, nil, invalidf("%s section is %d bytes, meta requires %d", sec.Name, sec.Length, want)
			}
			if err := decodeSection(body, sec.Kind, sec.Length, art); err != nil {
				return nil, nil, err
			}
		}
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		if sum != digests[i] {
			return nil, nil, fmt.Errorf("%w: %w in %s section", ErrInvalid, ErrDigestMismatch, sec.Name)
		}
	}
	if err := checkSections(art, table); err != nil {
		return nil, nil, err
	}
	if art.Meta.Index == "hl" {
		// A version-2 "hl" artifact also carries the hierarchy its
		// labels were built from; its digests verified above, and
		// nothing serves from it.
		art.CHUpOff, art.CHUpTo, art.CHUpWt = nil, nil, nil
	}

	// Manifest: the signed restatement of the table. Byte-for-byte
	// agreement with what was already parsed means the signature below
	// covers everything that was read.
	if err := cr.skipPadding(manifestOff); err != nil {
		return nil, nil, err
	}
	manifestJSON := make([]byte, manifestLen)
	if err := readFull(cr, manifestJSON, "manifest"); err != nil {
		return nil, nil, err
	}
	var man manifest
	mdec := json.NewDecoder(bytes.NewReader(manifestJSON))
	mdec.DisallowUnknownFields()
	if err := mdec.Decode(&man); err != nil {
		return nil, nil, invalidf("manifest: %v", err)
	}
	if man.FormatVersion != version {
		return nil, nil, invalidf("manifest declares format version %d, header says %d", man.FormatVersion, version)
	}
	if len(man.Sections) != len(table) {
		return nil, nil, invalidf("manifest lists %d sections, table has %d", len(man.Sections), len(table))
	}
	for i, ms := range man.Sections {
		if ms != table[i] {
			return nil, nil, invalidf("manifest disagrees with section table on %s", table[i].Name)
		}
	}
	if man.Writer != art.Meta.Writer {
		return nil, nil, invalidf("manifest writer %q disagrees with meta writer %q", man.Writer, art.Meta.Writer)
	}

	// Signature, then hard end-of-stream: a valid artifact has nothing
	// after it, so trailing bytes are an attack or corruption.
	var sig []byte
	if sigLen > 0 {
		sig = make([]byte, sigLen)
		if err := readFull(cr, sig, "signature"); err != nil {
			return nil, nil, err
		}
	}
	var tail [1]byte
	if _, err := cr.Read(tail[:]); err != io.EOF {
		return nil, nil, invalidf("trailing bytes after the signature")
	}

	info := &Info{
		FormatVersion: version,
		Writer:        art.Meta.Writer,
		Sections:      table,
		Signed:        len(sig) > 0,
	}
	if opts.VerifyKey != nil {
		if len(opts.VerifyKey) != ed25519.PublicKeySize {
			return nil, nil, fmt.Errorf("snapshot: verify key has %d bytes, want %d", len(opts.VerifyKey), ed25519.PublicKeySize)
		}
		if len(sig) == 0 {
			return nil, nil, fmt.Errorf("%w: %w: artifact is unsigned but verification was requested", ErrInvalid, ErrBadSignature)
		}
		if !ed25519.Verify(opts.VerifyKey, manifestJSON, sig) {
			return nil, nil, fmt.Errorf("%w: %w: manifest signature does not verify", ErrInvalid, ErrBadSignature)
		}
		info.Verified = true
	}
	return art, info, nil
}

// checkMeta validates the meta document on its own: counts in range,
// a known index kind for the container version, a receipt present.
// Cross-checks against the arrays happen in checkSections once they
// are decoded.
func checkMeta(m *Meta, version uint32) error {
	if m.FormatVersion != int(version) {
		return invalidf("meta declares format version %d, header says %d", m.FormatVersion, version)
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
	case "alt":
		if m.Landmarks < 1 || m.Landmarks > 1<<15 {
			return invalidf("meta landmark count %d outside [1, %d]", m.Landmarks, 1<<15)
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

// carriesCH reports whether meta's index comes with the CH sections:
// a "ch" index, or an "hl" index sealed at format version 2, which
// also stored the hierarchy its labels were built from.
func carriesCH(m *Meta) bool {
	return m.Index == "ch" || (m.Index == "hl" && m.FormatVersion == 2)
}

// expectedLength returns the exact byte length meta requires of a
// non-meta section, or ok=false when the section should not exist
// under meta's declared index kind. CHUpTo's length is pinned by the
// already-decoded CHUpOff array (its final offset counts the upward
// edges), so even the variable-size sections have exactly one valid
// length.
func expectedLength(m *Meta, kind uint32, art *Artifact) (length uint64, ok bool) {
	switch kind {
	case sectionEdgeFrom, sectionEdgeTo:
		return 4 * uint64(m.M), true
	case sectionWeights:
		return 8 * uint64(m.M), true
	case sectionCHUpOff:
		return 4 * (uint64(m.N) + 1), carriesCH(m)
	case sectionCHUpTo, sectionCHUpWt:
		if !carriesCH(m) || len(art.CHUpOff) != m.N+1 {
			return 0, false
		}
		last := art.CHUpOff[m.N]
		if last < 0 {
			return 0, false
		}
		if kind == sectionCHUpTo {
			return 4 * uint64(last), true
		}
		return 8 * uint64(last), true
	case sectionALTLandmarks:
		return 8 * uint64(m.Landmarks) * uint64(m.N), m.Index == "alt"
	case sectionHLLabOff:
		return 8 * (uint64(m.N) + 1), m.Index == "hl"
	case sectionHLLabHub, sectionHLLabDist:
		if m.Index != "hl" || len(art.HLLabOff) != m.N+1 {
			return 0, false
		}
		last := art.HLLabOff[m.N]
		if last < 0 {
			return 0, false
		}
		if kind == sectionHLLabHub {
			return 4 * uint64(last), true
		}
		return 8 * uint64(last), true
	}
	return 0, false
}

// decodeSection decodes one numeric section's payload into the
// artifact's arrays.
func decodeSection(r io.Reader, kind uint32, length uint64, art *Artifact) error {
	var err error
	switch kind {
	case sectionEdgeFrom:
		art.EdgeFrom, err = decodeU32(r, length/4)
	case sectionEdgeTo:
		art.EdgeTo, err = decodeU32(r, length/4)
	case sectionWeights:
		art.Weights, err = decodeF64(r, length/8)
	case sectionCHUpOff:
		art.CHUpOff, err = decodeI32(r, length/4)
	case sectionCHUpTo:
		art.CHUpTo, err = decodeI32(r, length/4)
	case sectionCHUpWt:
		art.CHUpWt, err = decodeF64(r, length/8)
	case sectionALTLandmarks:
		art.ALTLandmarks, err = decodeF64(r, length/8)
	case sectionHLLabOff:
		art.HLLabOff, err = decodeI64(r, length/8)
	case sectionHLLabHub:
		art.HLLabHub, err = decodeI32(r, length/4)
	case sectionHLLabDist:
		art.HLLabDist, err = decodeF64(r, length/8)
	default:
		err = invalidf("undecodable section kind %d", kind)
	}
	if err != nil {
		return fmt.Errorf("%s section: %w", sectionName(kind), err)
	}
	return nil
}

// checkSections cross-validates the decoded arrays against meta: the
// full section set for the declared index kind must be present, and
// edge endpoints and weights must satisfy the invariants the sealed
// oracle relies on. Deeper index-array validation (offset
// monotonicity, target bounds) belongs to index rehydration, which
// re-checks everything it consumes.
func checkSections(art *Artifact, table []SectionInfo) error {
	have := make(map[uint32]bool, len(table))
	for _, s := range table {
		have[s.Kind] = true
	}
	required := []uint32{sectionMeta, sectionEdgeFrom, sectionEdgeTo, sectionWeights}
	if carriesCH(&art.Meta) {
		required = append(required, sectionCHUpOff, sectionCHUpTo, sectionCHUpWt)
	}
	switch art.Meta.Index {
	case "hl":
		required = append(required, sectionHLLabOff, sectionHLLabHub, sectionHLLabDist)
	case "alt":
		required = append(required, sectionALTLandmarks)
	}
	if len(have) != len(required) {
		return invalidf("artifact has %d sections, index kind %q requires %d", len(have), art.Meta.Index, len(required))
	}
	for _, kind := range required {
		if !have[kind] {
			return invalidf("missing %s section", sectionName(kind))
		}
	}
	n := uint64(art.Meta.N)
	for i := range art.EdgeFrom {
		if uint64(art.EdgeFrom[i]) >= n || uint64(art.EdgeTo[i]) >= n {
			return invalidf("edge %d joins (%d, %d) outside [0, %d)", i, art.EdgeFrom[i], art.EdgeTo[i], n)
		}
	}
	for i, w := range art.Weights {
		if w < 0 || math.IsNaN(w) {
			return invalidf("released weight %d is %g; sealed weights are clamped nonnegative", i, w)
		}
	}
	return nil
}

// countingReader tracks the absolute stream position for offset
// verification and padding consumption.
type countingReader struct {
	r io.Reader
	n uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

// skipPadding consumes bytes up to the target offset, requiring every
// one to be zero: inter-section gaps are alignment padding, not a
// place to smuggle unsigned data.
func (c *countingReader) skipPadding(target uint64) error {
	if c.n > target {
		return invalidf("stream position %d past expected offset %d", c.n, target)
	}
	var buf [sectionAlign]byte
	for c.n < target {
		k := target - c.n
		if k > sectionAlign {
			k = sectionAlign
		}
		if err := readFull(c, buf[:k], "padding"); err != nil {
			return err
		}
		for _, b := range buf[:k] {
			if b != 0 {
				return invalidf("nonzero padding before offset %d", target)
			}
		}
	}
	return nil
}

// readFull wraps io.ReadFull with the truncation error class.
func readFull(r io.Reader, p []byte, what string) error {
	if _, err := io.ReadFull(r, p); err != nil {
		return invalidf("truncated in %s: %v", what, err)
	}
	return nil
}

// The decoders grow their result as bytes actually arrive: initial
// capacity is capped, so a length field lying about a huge section
// costs the attacker a full stream of real bytes, not us a giant
// allocation up front.

const maxInitElems = 1 << 17 // ~1MiB of 8-byte elements

func initCap(count uint64) int {
	if count > maxInitElems {
		return maxInitElems
	}
	return int(count)
}

func decodeU32(r io.Reader, count uint64) ([]uint32, error) {
	out := make([]uint32, 0, initCap(count))
	buf := make([]byte, chunkBytes)
	for remaining := count; remaining > 0; {
		k := uint64(len(buf) / 4)
		if k > remaining {
			k = remaining
		}
		if err := readFull(r, buf[:k*4], "array payload"); err != nil {
			return nil, err
		}
		for i := uint64(0); i < k; i++ {
			out = append(out, binary.LittleEndian.Uint32(buf[i*4:]))
		}
		remaining -= k
	}
	return out, nil
}

func decodeI32(r io.Reader, count uint64) ([]int32, error) {
	out := make([]int32, 0, initCap(count))
	buf := make([]byte, chunkBytes)
	for remaining := count; remaining > 0; {
		k := uint64(len(buf) / 4)
		if k > remaining {
			k = remaining
		}
		if err := readFull(r, buf[:k*4], "array payload"); err != nil {
			return nil, err
		}
		for i := uint64(0); i < k; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[i*4:])))
		}
		remaining -= k
	}
	return out, nil
}

func decodeI64(r io.Reader, count uint64) ([]int64, error) {
	out := make([]int64, 0, initCap(count))
	buf := make([]byte, chunkBytes)
	for remaining := count; remaining > 0; {
		k := uint64(len(buf) / 8)
		if k > remaining {
			k = remaining
		}
		if err := readFull(r, buf[:k*8], "array payload"); err != nil {
			return nil, err
		}
		for i := uint64(0); i < k; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[i*8:])))
		}
		remaining -= k
	}
	return out, nil
}

func decodeF64(r io.Reader, count uint64) ([]float64, error) {
	out := make([]float64, 0, initCap(count))
	buf := make([]byte, chunkBytes)
	for remaining := count; remaining > 0; {
		k := uint64(len(buf) / 8)
		if k > remaining {
			k = remaining
		}
		if err := readFull(r, buf[:k*8], "array payload"); err != nil {
			return nil, err
		}
		for i := uint64(0); i < k; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
		}
		remaining -= k
	}
	return out, nil
}
