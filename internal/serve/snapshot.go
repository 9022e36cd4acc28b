package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/dpgraph"
)

// Snapshot transport: the daemon-side half of sealed release
// snapshots. GET /v1/releases/{name}/snapshot streams a release as a
// sealed artifact (signed when the server holds a signing key), and
// POST /v1/releases/{name}:import registers a release from an uploaded
// artifact — zero privacy budget spent, because everything in a
// snapshot is already-released public output. RestoreDir does the same
// from a directory at boot, which is what turns a daemon restart from
// a full re-materialization (budget + contraction) into a
// milliseconds-scale array load.

// DefaultMaxSnapshotBytes bounds uploaded snapshot artifacts when
// Config leaves MaxSnapshotBytes unset: a ~10M-edge indexed release
// seals to well under this, and the bound keeps a hostile upload from
// streaming unbounded bytes through the decoder.
const DefaultMaxSnapshotBytes = 1 << 30

// snapshotExt is the artifact filename extension RestoreDir scans for.
const snapshotExt = ".dpsnap"

// etagOf derives the snapshot ETag from the release's receipt: sealing
// is deterministic, so the receipt (mechanism, cost, timestamp)
// identifies the artifact bytes, and replicas can revalidate a cached
// snapshot without re-downloading.
func etagOf(result dpgraph.Result) (string, error) {
	receiptJSON, err := json.Marshal(result.Info().Receipt)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(receiptJSON)
	return `"` + hex.EncodeToString(sum[:]) + `"`, nil
}

// handleSnapshotGet streams the named release as a sealed artifact.
// The response is deterministic for a given release, carries the
// receipt-hash ETag, and honors If-None-Match revalidation.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	rel, ok := s.resolve(w, r)
	if !ok {
		return
	}
	if !dpgraph.Sealable(rel.oracle) {
		writeError(w, http.StatusConflict, "release %q (mechanism %s) is not sealable: only synthetic-graph releases have a snapshot form", rel.name, rel.spec.Mechanism)
		return
	}
	etag, err := etagOf(rel.result)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "computing snapshot etag: %v", err)
		return
	}
	w.Header().Set("ETag", etag)
	for _, match := range strings.Split(r.Header.Get("If-None-Match"), ",") {
		if m := strings.TrimSpace(match); m == etag || m == "*" {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	if !s.admitOrShed(w, rel) {
		return
	}
	defer rel.done()
	var opts []dpgraph.SealOption
	if s.cfg.SigningKey != nil {
		opts = append(opts, dpgraph.WithSigningKey(s.cfg.SigningKey))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", rel.name+snapshotExt))
	// Seal validates before emitting its first byte, so a failure with
	// nothing yet written can still become a clean JSON error; once the
	// stream has started, a failure means the client went away and
	// there is no response left to fix.
	lw := &latchWriter{w: w}
	if err := dpgraph.Seal(lw, rel.oracle, rel.result, opts...); err != nil && !lw.wrote {
		w.Header().Del("Content-Disposition")
		writeError(w, http.StatusInternalServerError, "sealing %q: %v", rel.name, err)
	}
}

// latchWriter records whether any byte reached the response, so the
// snapshot handler knows if an error can still be reported cleanly.
type latchWriter struct {
	w     http.ResponseWriter
	wrote bool
}

func (l *latchWriter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		l.wrote = true
	}
	return l.w.Write(p)
}

// handleImport registers a release from an uploaded sealed artifact
// under the path's name (spelled /v1/releases/{name}:import; the mux
// wildcard captures "name:import" because a colon cannot appear in a
// release name). Importing spends no privacy budget — the receipt
// rides along from the origin release — but counts against the
// registry cap like any other release.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	name, ok := strings.CutSuffix(r.PathValue("name"), ":import")
	if !ok {
		writeError(w, http.StatusNotFound, "no such endpoint %s (snapshot import is POST /v1/releases/{name}:import)", r.URL.Path)
		return
	}
	if !releaseName.MatchString(name) {
		writeError(w, http.StatusBadRequest, "bad release name %q: want 1-128 characters of [A-Za-z0-9._-]", name)
		return
	}
	maxBytes := s.cfg.MaxSnapshotBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxSnapshotBytes
	}
	var opts []dpgraph.UnsealOption
	if s.cfg.VerifyKey != nil {
		opts = append(opts, dpgraph.WithVerifyKey(s.cfg.VerifyKey))
	}
	// Unsealing is pure post-processing of an already-public artifact:
	// no budget at stake, so decoding before reserving the name risks
	// only wasted work on a conflict, never a double spend.
	sealed, err := dpgraph.Unseal(http.MaxBytesReader(w, r.Body, maxBytes), opts...)
	if err != nil {
		writeBodyError(w, fmt.Errorf("unsealing snapshot for %q: %w", name, err))
		return
	}
	rel, err := s.publishSealed(name, sealed)
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, errTooManyReleases) {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, s.summarize(rel))
}

// publishSealed registers an unsealed release in the registry, ready
// immediately: there is no materialization phase to wait out.
func (s *Server) publishSealed(name string, sealed *dpgraph.Sealed) (*release, error) {
	info := sealed.Info()
	spec := dpgraph.ReleaseSpec{
		Mechanism: info.Mechanism,
		Epsilon:   info.Epsilon,
		Delta:     info.Delta,
		Index:     sealed.IndexKind(),
	}
	rel, err := s.reg.reserve(name, spec, s.cfg.MaxInflight, s.cfg.MaxReleases)
	if err != nil {
		return nil, err
	}
	s.publish(rel, sealed.Oracle(), sealed)
	return rel, nil
}

// RestoreDir registers every *.dpsnap artifact in dir as a ready
// release named by its file basename, verifying signatures when the
// server holds a verify key. It is the serve -snapshot-dir boot path:
// restoring spends zero privacy budget and skips index construction,
// so a replica starts answering in milliseconds. The first bad
// artifact fails the whole restore — a daemon silently serving a
// subset of its configured releases is worse than one that refuses to
// start.
func (s *Server) RestoreDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("reading snapshot dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), snapshotExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var opts []dpgraph.UnsealOption
	if s.cfg.VerifyKey != nil {
		opts = append(opts, dpgraph.WithVerifyKey(s.cfg.VerifyKey))
	}
	restored := 0
	for _, fname := range names {
		name := strings.TrimSuffix(fname, snapshotExt)
		if !releaseName.MatchString(name) {
			return restored, fmt.Errorf("snapshot %s: name %q is not a valid release name", fname, name)
		}
		f, err := os.Open(filepath.Join(dir, fname))
		if err != nil {
			return restored, fmt.Errorf("snapshot %s: %w", fname, err)
		}
		sealed, err := dpgraph.Unseal(f, opts...)
		f.Close()
		if err != nil {
			return restored, fmt.Errorf("snapshot %s: %w", fname, err)
		}
		if _, err := s.publishSealed(name, sealed); err != nil {
			return restored, fmt.Errorf("snapshot %s: %w", fname, err)
		}
		restored++
	}
	return restored, nil
}
