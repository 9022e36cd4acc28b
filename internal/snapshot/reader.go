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

	"repro/internal/graph/index"
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
		spec := specOf(kind)
		if spec == nil {
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
			Name:   spec.name,
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
	buf := make([]byte, chunkBytes)
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
			spec := specOf(sec.Kind)
			want, err := spec.size(art)
			if err != nil {
				return nil, nil, err
			}
			if sec.Length != want {
				return nil, nil, invalidf("%s section is %d bytes, meta requires %d", sec.Name, sec.Length, want)
			}
			p := spec.array(art)
			if err := decodeArray(body, p, want/elemWidth(p), buf); err != nil {
				return nil, nil, fmt.Errorf("%s section: %w", sec.Name, err)
			}
		}
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		if sum != digests[i] {
			return nil, nil, fmt.Errorf("%w: %w in %s section", ErrInvalid, ErrDigestMismatch, sec.Name)
		}
	}
	// Every section read was one meta asks for; walking the table
	// alongside the sections read finds any it asks for and lacks.
	next := 0
	for _, s := range sectionTable {
		if !s.carried(&art.Meta) {
			continue
		}
		if next == len(table) || table[next].Kind != s.kind {
			return nil, nil, invalidf("missing %s section", s.name)
		}
		next++
	}
	if err := checkEdges(art); err != nil {
		return nil, nil, err
	}
	if art.Meta.Index == "hl" && art.Meta.FormatVersion == 2 {
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
	// Hub labels sealed as sources are rebuilt only now that every
	// digest, and the signature when a key was given, has verified, so
	// nothing the size of the labels is allocated for a forged or
	// corrupt artifact.
	if carriesSources(&art.Meta) {
		f := &index.FlatIndex{Kind: "hl", UpOff: art.CHUpOff, UpTo: art.CHUpTo, UpWt: art.CHUpWt}
		if err := index.RebuildLabels(f, art.HLLabLen, art.HLSrc); err != nil {
			return nil, nil, invalidf("%v", err)
		}
		art.HLLabOff, art.HLLabHub, art.HLLabDist, art.rebuilt = f.LabOff, f.LabHub, f.LabDist, f
	}
	return art, info, nil
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

// maxInitElems caps the capacity decodeArray allocates up front.
const maxInitElems = 1 << 17 // ~1MiB of 8-byte elements

// decodeArray reads count little-endian elements from r into the slice
// p points at, one buf-sized chunk at a time; the element type is
// switched on once per chunk. The slice grows as bytes actually
// arrive, so a length field lying about a huge section costs the
// attacker a stream of real bytes, not us a giant allocation up front:
// see extend for the bound.
func decodeArray(r io.Reader, p any, count uint64, buf []byte) error {
	width := elemWidth(p)
	for remaining := count; remaining > 0; {
		k := min(uint64(len(buf))/width, remaining)
		chunk := buf[:k*width]
		if err := readFull(r, chunk, "array payload"); err != nil {
			return err
		}
		switch s := p.(type) {
		case *[]byte:
			copy(extend(s, count, int(k)), chunk)
		case *[]uint32:
			dst := extend(s, count, int(k))
			for j := range dst {
				dst[j] = binary.LittleEndian.Uint32(chunk[4*j:])
			}
		case *[]int32:
			dst := extend(s, count, int(k))
			for j := range dst {
				dst[j] = int32(binary.LittleEndian.Uint32(chunk[4*j:]))
			}
		case *[]int64:
			dst := extend(s, count, int(k))
			for j := range dst {
				dst[j] = int64(binary.LittleEndian.Uint64(chunk[8*j:]))
			}
		case *[]float64:
			dst := extend(s, count, int(k))
			for j := range dst {
				dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*j:]))
			}
		}
		remaining -= k
	}
	return nil
}

// extend lengthens the slice s points at by k more of the count
// elements its section declares and returns them. The first allocation
// holds at most maxInitElems elements and later ones double it, until
// half of count has arrived: then it reserves exactly count, so a
// truthful section ends with cap == len, having copied fewer than
// 1.5 × count elements on the way. At every step the capacity is at
// most max(maxInitElems, 2 × the elements received), so a lying count
// costs at most twice the bytes actually sent.
func extend[T any](s *[]T, count uint64, k int) []T {
	n := len(*s)
	need := uint64(n + k)
	want := uint64(cap(*s))
	switch {
	case 2*need >= count:
		want = count
	case need > want:
		want = max(2*want, need, min(count, maxInitElems))
	}
	if want > uint64(cap(*s)) {
		grown := make([]T, n, want)
		copy(grown, *s)
		*s = grown
	}
	*s = (*s)[:n+k]
	return (*s)[n:]
}
