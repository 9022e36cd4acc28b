package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"repro/dpgraph"
	"repro/internal/snapshot"
)

// Sealed-snapshot subcommands: seal materializes a release and writes
// it as a signed artifact, unseal restores one (optionally answering
// pairs from it), keygen mints the ed25519 pair the two sides share,
// and version prints the build stamp that seal embeds as the writer.

// runSeal materializes the mechanism's release from the loaded graph —
// the only budget-charging step — and writes it as a sealed snapshot
// artifact to -out (stdout when omitted). Sealing is deterministic in
// the release: the artifact bytes are a pure function of the
// materialized release and its receipt.
func runSeal(out *os.File, g *dpgraph.Graph, w []float64, desc dpgraph.Descriptor, spec dpgraph.ReleaseSpec, args []string) error {
	fs := flag.NewFlagSet("dpgraph seal", flag.ContinueOnError)
	var (
		outPath = fs.String("out", "", "write the artifact to FILE (default: stdout)")
		keyPath = fs.String("key", "", "sign the artifact with this ed25519 private key (PEM)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	q, err := parseArgs(desc.Name, desc.OracleArgs, fs.Args())
	if err != nil {
		return err
	}
	spec.Root = q.Root

	var opts []dpgraph.SealOption
	if *keyPath != "" {
		key, err := snapshot.LoadPrivateKey(*keyPath)
		if err != nil {
			return fmt.Errorf("-key: %w", err)
		}
		opts = append(opts, dpgraph.WithSigningKey(key))
	}

	oracle, res, err := spec.Materialize(g, dpgraph.PrivateWeights(w))
	if err != nil {
		return err
	}
	if !dpgraph.Sealable(oracle) {
		return fmt.Errorf("mechanism %q releases a lookup-backed oracle: %w", desc.Name, dpgraph.ErrNotSealable)
	}

	// The artifact may be going to stdout; route the human-facing
	// report around it in that case.
	dest, report := io.Writer(out), io.Writer(out)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dest = f
	} else {
		report = os.Stderr
	}
	if err := dpgraph.Seal(dest, oracle, res, opts...); err != nil {
		return err
	}
	if f, ok := dest.(*os.File); ok && f != out {
		if err := f.Close(); err != nil {
			return err
		}
		if st, err := os.Stat(*outPath); err == nil {
			fmt.Fprintf(report, "dpgraph: sealed %d bytes to %s\n", st.Size(), *outPath)
		}
	}
	signedNote := "unsigned"
	if *keyPath != "" {
		signedNote = "signed"
	}
	fmt.Fprintf(report, "dpgraph: %s %q release sealed (%d vertices, %d edges, index %s)\n",
		signedNote, spec.Mechanism, g.N(), g.M(), orNone(spec.Index))
	fmt.Fprintf(report, "privacy receipt: %s\n", res.Info().Receipt)
	return nil
}

// runUnseal restores a sealed artifact (from -in, or stdin) and prints
// its metadata; with -query it additionally answers s-t pairs from
// stdin against the restored oracle — zero privacy budget either way,
// because a snapshot is already-released public output.
func runUnseal(out *os.File, in io.Reader, args []string) error {
	fs := flag.NewFlagSet("dpgraph unseal", flag.ContinueOnError)
	var (
		inPath     = fs.String("in", "", "read the artifact from FILE (default: stdin)")
		verifyPath = fs.String("verify", "", "require a signature verifying against this ed25519 public key (PEM)")
		jsonOut    = fs.Bool("json", false, "emit machine-readable JSON")
		query      = fs.Bool("query", false, "answer s-t pairs from stdin against the restored oracle (requires -in)")
		gamma      = fs.Float64("gamma", 0.05, "failure probability for the error bound")
		workers    = fs.Int("workers", 1, "parallel workers answering -query pairs (0: GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unseal takes no positional arguments, got %q", fs.Args())
	}
	if !(*gamma > 0 && *gamma < 1) {
		return fmt.Errorf("gamma must be in (0, 1), got %g", *gamma)
	}
	if *query && *inPath == "" {
		return fmt.Errorf("-query reads pairs from stdin, so the artifact needs -in FILE")
	}

	var opts []dpgraph.UnsealOption
	if *verifyPath != "" {
		key, err := snapshot.LoadPublicKey(*verifyPath)
		if err != nil {
			return fmt.Errorf("-verify: %w", err)
		}
		opts = append(opts, dpgraph.WithVerifyKey(key))
	}

	src := in
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	sealed, err := dpgraph.Unseal(src, opts...)
	if err != nil {
		return err
	}

	if *query {
		pairs, err := readPairs(in)
		if err != nil {
			return err
		}
		if len(pairs) == 0 {
			return fmt.Errorf("-query needs at least one s-t pair on stdin")
		}
		oracle := sealed.Oracle()
		values, err := answerPairs(oracle, pairs, *workers)
		if err != nil {
			return err
		}
		return writeAnswers(out, *jsonOut, pairs, values, queryJSONOutput{
			Mechanism: sealed.Mechanism,
			Bound:     oracle.Bound(*gamma),
			Gamma:     *gamma,
			Receipt:   sealed.Receipt,
		}, fmt.Sprintf("%d queries answered from an unsealed %q release (zero budget)", len(pairs), sealed.Mechanism))
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Mechanism string          `json:"mechanism"`
			Epsilon   float64         `json:"epsilon"`
			Delta     float64         `json:"delta"`
			N         int             `json:"n"`
			M         int             `json:"m"`
			Index     string          `json:"index,omitempty"`
			Writer    string          `json:"writer"`
			Signed    bool            `json:"signed"`
			Verified  bool            `json:"verified"`
			Bound     float64         `json:"bound"`
			Gamma     float64         `json:"gamma"`
			Receipt   dpgraph.Receipt `json:"receipt"`
		}{sealed.Mechanism, sealed.Epsilon, sealed.Delta, sealed.Vertices(), sealed.Edges(),
			sealed.IndexKind(), sealed.WriterVersion(), sealed.Signed(), sealed.Verified(),
			sealed.Oracle().Bound(*gamma), *gamma, sealed.Receipt})
	}
	fmt.Fprintln(out, sealed.Summary())
	fmt.Fprintf(out, "writer: %s\n", sealed.WriterVersion())
	fmt.Fprintf(out, "signed: %v, verified: %v\n", sealed.Signed(), sealed.Verified())
	fmt.Fprintf(out, "error bound at gamma=%g: %.4f\n", *gamma, sealed.Oracle().Bound(*gamma))
	fmt.Fprintf(out, "privacy receipt: %s\n", sealed.Receipt)
	return nil
}

// runKeygen mints an ed25519 key pair for snapshot signing: the PEM
// private key for the sealing side (dpgraph seal -key, serve
// -snapshot-key) and the PEM public key for the verifying side
// (dpgraph unseal -verify, serve -snapshot-verify).
func runKeygen(out *os.File, args []string) error {
	fs := flag.NewFlagSet("dpgraph keygen", flag.ContinueOnError)
	var (
		keyPath = fs.String("out", "dpsnap.key", "private key output file (PEM, created 0600)")
		pubPath = fs.String("pub", "dpsnap.pub", "public key output file (PEM)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("keygen takes no positional arguments, got %q", fs.Args())
	}
	pub, priv, err := snapshot.GenerateKey()
	if err != nil {
		return err
	}
	privPEM, err := snapshot.MarshalPrivateKeyPEM(priv)
	if err != nil {
		return err
	}
	pubPEM, err := snapshot.MarshalPublicKeyPEM(pub)
	if err != nil {
		return err
	}
	// Refuse to clobber an existing key: losing a signing key silently
	// would strand every replica configured to verify against it.
	f, err := os.OpenFile(*keyPath, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("writing private key: %w", err)
	}
	if _, err := f.Write(privPEM); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(*pubPath, pubPEM, 0o644); err != nil {
		return fmt.Errorf("writing public key: %w", err)
	}
	fmt.Fprintf(out, "dpgraph: wrote ed25519 private key to %s and public key to %s\n", *keyPath, *pubPath)
	return nil
}

// runVersion prints the build identity: the module version plus VCS
// revision when the binary was built from a checkout. The same string
// is embedded in sealed artifacts as the writer, so operators can map
// a snapshot back to the build that produced it.
func runVersion(out *os.File, args []string) error {
	fs := flag.NewFlagSet("dpgraph version", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("version takes no positional arguments, got %q", fs.Args())
	}
	var (
		goVersion = "unknown"
		module    = "unknown"
		modVer    = ""
		revision  = ""
		dirty     = false
	)
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		module = bi.Main.Path
		modVer = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Module    string `json:"module"`
			Version   string `json:"version,omitempty"`
			GoVersion string `json:"go_version"`
			Revision  string `json:"revision,omitempty"`
			Dirty     bool   `json:"dirty,omitempty"`
			Writer    string `json:"writer"`
		}{module, modVer, goVersion, revision, dirty, snapshot.WriterVersion()})
	}
	fmt.Fprintf(out, "dpgraph %s %s (%s)\n", module, orNone(modVer), goVersion)
	if revision != "" {
		mark := ""
		if dirty {
			mark = " (modified)"
		}
		fmt.Fprintf(out, "revision: %s%s\n", revision, mark)
	}
	fmt.Fprintf(out, "snapshot writer id: %s\n", snapshot.WriterVersion())
	return nil
}

// orNone renders an empty selector value as "none" for human output.
func orNone(s string) string {
	if s == "" || s == "off" {
		return "none"
	}
	return s
}
