package dpgraph

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/graph/index"
	"repro/internal/snapshot"
)

// Sealed release snapshots. A materialized synthetic-graph release —
// the released weight vector, its query index, and its privacy
// receipt — is immutable and privacy-free to copy: everything in it is
// already public output of the mechanism. Seal writes it as a signed
// binary artifact; Unseal reconstructs a ready-to-serve oracle from
// the artifact in milliseconds, without re-running contraction and
// without spending any privacy budget. The receipt travels with the
// artifact, so a restored replica serves under the original budget
// accounting rather than charging again.
//
// A snapshot received over the network is untrusted input: Unseal
// hard-fails on a bad signature, a section digest mismatch, an unknown
// format version, or a receipt that disagrees with the embedded
// arrays' metadata, and never returns a partial oracle.

// Snapshot error classes, re-exported from the container layer so
// callers can branch without importing internal packages. Every Unseal
// failure wraps ErrInvalidSnapshot; the finer classes identify bad
// signatures, digest mismatches, and version skew.
var (
	ErrInvalidSnapshot        = snapshot.ErrInvalid
	ErrSnapshotBadSignature   = snapshot.ErrBadSignature
	ErrSnapshotDigestMismatch = snapshot.ErrDigestMismatch
	ErrSnapshotUnknownVersion = snapshot.ErrUnknownVersion
)

// ErrNotSealable marks a release whose oracle Seal cannot serialize:
// only synthetic-graph releases (searching oracles over a released
// weight vector) have the flat-array form the container carries.
var ErrNotSealable = errors.New("dpgraph: release is not sealable (only synthetic-graph oracles can be sealed)")

// SealOption configures Seal.
type SealOption func(*sealConfig) error

type sealConfig struct {
	signingKey ed25519.PrivateKey
}

// WithSigningKey signs the sealed artifact's manifest with an ed25519
// key, letting consumers verify provenance with the matching public
// key. Signing is deterministic: re-sealing the same release yields
// byte-identical artifacts.
func WithSigningKey(key ed25519.PrivateKey) SealOption {
	return func(c *sealConfig) error {
		if len(key) != ed25519.PrivateKeySize {
			return fmt.Errorf("dpgraph: signing key has %d bytes, want %d", len(key), ed25519.PrivateKeySize)
		}
		c.signingKey = key
		return nil
	}
}

// UnsealOption configures Unseal.
type UnsealOption func(*unsealConfig) error

type unsealConfig struct {
	verifyKey ed25519.PublicKey
}

// WithVerifyKey requires the artifact to carry an ed25519 signature
// verifying against the given public key; unsigned artifacts and
// signatures by other keys fail with ErrSnapshotBadSignature.
func WithVerifyKey(key ed25519.PublicKey) UnsealOption {
	return func(c *unsealConfig) error {
		if len(key) != ed25519.PublicKeySize {
			return fmt.Errorf("dpgraph: verify key has %d bytes, want %d", len(key), ed25519.PublicKeySize)
		}
		c.verifyKey = key
		return nil
	}
}

// Sealable reports whether Seal can serialize the release behind
// oracle: true exactly for synthetic-graph oracles. Serving layers use
// it to answer "not sealable" cheaply before committing to a streamed
// response.
func Sealable(oracle DistanceOracle) bool {
	_, ok := oracle.(*syntheticOracle)
	return ok
}

// Seal writes the release behind (oracle, result) to w as a sealed
// snapshot artifact. The oracle must come from a synthetic-graph
// release (ErrNotSealable otherwise); the result supplies the privacy
// metadata and receipt embedded in the artifact. The arrays stream
// through a fixed-size buffer, so sealing a large release does not
// double its memory footprint.
func Seal(w io.Writer, oracle DistanceOracle, result Result, opts ...SealOption) error {
	var cfg sealConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return err
		}
	}
	o, ok := oracle.(*syntheticOracle)
	if !ok {
		return ErrNotSealable
	}
	n, m := o.g.N(), o.g.M() // snapshot.Write refuses counts past 2^32
	ri := result.Info()
	receiptJSON, err := json.Marshal(ri.Receipt)
	if err != nil {
		return fmt.Errorf("dpgraph: encoding receipt: %w", err)
	}
	art := &snapshot.Artifact{
		Meta: snapshot.Meta{
			Writer:     snapshot.WriterVersion(),
			Mechanism:  ri.Mechanism,
			Epsilon:    ri.Epsilon,
			Delta:      ri.Delta,
			NoiseScale: ri.NoiseScale,
			N:          n,
			M:          m,
			Directed:   o.g.Directed(),
			Receipt:    receiptJSON,
		},
		EdgeFrom: make([]uint32, m),
		EdgeTo:   make([]uint32, m),
		Weights:  o.w,
	}
	for i, e := range o.g.Edges() {
		art.EdgeFrom[i] = uint32(e.From)
		art.EdgeTo[i] = uint32(e.To)
	}
	if o.idx != nil {
		flat, err := index.Export(o.idx)
		if err != nil {
			return fmt.Errorf("dpgraph: exporting query index: %w", err)
		}
		if err := art.SetIndex(flat); err != nil {
			return fmt.Errorf("dpgraph: sealing query index: %w", err)
		}
	}
	art.Meta.FormatVersion = snapshot.SealVersion(&art.Meta)
	return snapshot.Write(w, art, snapshot.WriteOptions{SigningKey: cfg.signingKey})
}

// Sealed is an unsealed snapshot: the release's metadata (it satisfies
// Result, with the original receipt carried over) plus a ready-to-
// serve oracle reconstructed from the embedded arrays. Unsealing is
// pure post-processing of an already-public artifact — it charges no
// privacy budget anywhere.
type Sealed struct {
	ReleaseInfo

	meta   snapshot.Meta
	info   *snapshot.Info
	oracle *syntheticOracle
}

// Oracle returns the reconstructed distance oracle: identical answers
// to the origin release, bit for bit, including through the rebuilt
// query index.
func (s *Sealed) Oracle() DistanceOracle { return s.oracle }

// Bound returns the per-edge noise bound holding for all edges
// simultaneously except with probability gamma, matching the origin
// SyntheticGraph result. It bounds one edge's error, not a distance's:
// a distance sums up to N-1 released edges, and its bound is
// Oracle().Bound(gamma).
func (s *Sealed) Bound(gamma float64) float64 {
	if s.meta.M == 0 {
		return 0
	}
	return dp.UnionTailBound(s.NoiseScale, s.meta.M, gamma)
}

// Summary renders a short description of the unsealed release.
func (s *Sealed) Summary() string {
	idx := s.meta.Index
	if idx == "" {
		idx = "none"
	}
	return fmt.Sprintf("unsealed %s release: %d vertices, %d edges, index %s (noise scale %.4g)",
		s.Mechanism, s.meta.N, s.meta.M, idx, s.NoiseScale)
}

// IndexKind reports the embedded query index: "", "ch", "alt", or
// "hl".
func (s *Sealed) IndexKind() string { return s.meta.Index }

// Vertices and Edges report the size of the restored release.
func (s *Sealed) Vertices() int { return s.meta.N }
func (s *Sealed) Edges() int    { return s.meta.M }

// WriterVersion reports the build that sealed the artifact.
func (s *Sealed) WriterVersion() string { return s.meta.Writer }

// Signed reports whether the artifact carried a signature; Verified
// whether Unseal checked it against a caller-provided key.
func (s *Sealed) Signed() bool   { return s.info.Signed }
func (s *Sealed) Verified() bool { return s.info.Verified }

// Unseal reads a sealed snapshot from r and reconstructs the release:
// the topology from the edge arrays, the oracle over the released
// weights, and the query index rehydrated from its flat arrays without
// re-running contraction or landmark selection. It validates
// everything before returning — container structure, digests,
// signature (when WithVerifyKey is given), receipt consistency with
// the embedded metadata, and index-array invariants — and returns a
// nil Sealed on any failure.
func Unseal(r io.Reader, opts ...UnsealOption) (*Sealed, error) {
	var cfg unsealConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	art, info, err := snapshot.Read(r, snapshot.ReadOptions{VerifyKey: cfg.verifyKey})
	if err != nil {
		return nil, err
	}
	meta := art.Meta

	// The receipt is the release's ledger entry; an artifact whose
	// receipt disagrees with its own metadata is forged or corrupt,
	// regardless of whether the bytes verify.
	var receipt Receipt
	dec := json.NewDecoder(bytes.NewReader(meta.Receipt))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&receipt); err != nil {
		return nil, fmt.Errorf("%w: receipt does not parse: %v", ErrInvalidSnapshot, err)
	}
	if receipt.Mechanism != meta.Mechanism {
		return nil, fmt.Errorf("%w: receipt mechanism %q disagrees with metadata %q", ErrInvalidSnapshot, receipt.Mechanism, meta.Mechanism)
	}
	if receipt.Epsilon != meta.Epsilon { //dpvet:allow floatcmp -- seal integrity: both sides round-trip the same JSON encoding, so equality is exact by construction
		return nil, fmt.Errorf("%w: receipt epsilon %g disagrees with metadata %g", ErrInvalidSnapshot, receipt.Epsilon, meta.Epsilon)
	}
	if receipt.Delta != meta.Delta { //dpvet:allow floatcmp -- seal integrity: both sides round-trip the same JSON encoding, so equality is exact by construction
		return nil, fmt.Errorf("%w: receipt delta %g disagrees with metadata %g", ErrInvalidSnapshot, receipt.Delta, meta.Delta)
	}

	g := graph.New(meta.N)
	if meta.Directed {
		g = graph.NewDirected(meta.N)
	}
	for i := 0; i < meta.M; i++ {
		g.AddEdge(int(art.EdgeFrom[i]), int(art.EdgeTo[i]))
	}
	hops := meta.N - 1
	if hops < 1 {
		hops = 1
	}
	noiseScale, m := meta.NoiseScale, meta.M
	o := &syntheticOracle{
		g: g,
		w: art.Weights,
		bound: func(gamma float64) float64 {
			if m == 0 {
				return 0
			}
			return float64(hops) * dp.UnionTailBound(noiseScale, m, gamma)
		},
	}
	if flat := art.Index(); flat != nil {
		idx, err := index.Rehydrate(g, o.w, flat)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidSnapshot, err)
		}
		o.idx = idx
		o.cache = index.NewPairCache(0)
	}
	return &Sealed{
		ReleaseInfo: ReleaseInfo{
			Mechanism:  meta.Mechanism,
			Epsilon:    meta.Epsilon,
			Delta:      meta.Delta,
			NoiseScale: meta.NoiseScale,
			Receipt:    receipt,
		},
		meta:   meta,
		info:   info,
		oracle: o,
	}, nil
}
