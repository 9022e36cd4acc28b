package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/dpgraph"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// runServe starts the HTTP distance-serving daemon over the loaded
// graph and stays up until SIGINT/SIGTERM, then drains in-flight
// requests before returning (graceful shutdown; see runDaemon).
func runServe(out *os.File, g *dpgraph.Graph, w []float64, args []string) error {
	fs := flag.NewFlagSet("dpgraph serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		maxBody     = fs.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size limit in bytes")
		maxInflight = fs.Int("max-inflight", 256, "default per-release cap on concurrent in-flight requests (0: unlimited; specs may override with max_inflight)")
		maxReleases = fs.Int("max-releases", serve.DefaultMaxReleases, "cap on registered releases (bounds memory and cumulative privacy loss)")
		allowSeeded = fs.Bool("allow-seeded", false, "accept specs with a deterministic seed (NO privacy; tests and demos only)")
		snapDir     = fs.String("snapshot-dir", "", "restore every *.dpsnap sealed release in this directory at boot")
		snapKey     = fs.String("snapshot-key", "", "ed25519 private key (PEM) used to sign exported snapshots")
		snapVerify  = fs.String("snapshot-verify", "", "ed25519 public key (PEM); imported and restored snapshots must verify against it")
		drainGrace  = fs.Duration("drain-grace", 500*time.Millisecond, "after SIGINT/SIGTERM, keep the listener open this long answering 503s (readyz already not-ready) so health-probed load balancers stop sending before connections close")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve takes no positional arguments, got %q", fs.Args())
	}
	if *maxInflight < 0 {
		return fmt.Errorf("-max-inflight must be >= 0, got %d", *maxInflight)
	}
	if *maxReleases < 1 {
		return fmt.Errorf("-max-releases must be >= 1, got %d", *maxReleases)
	}
	if *drainGrace < 0 {
		return fmt.Errorf("-drain-grace must be >= 0, got %v", *drainGrace)
	}

	cfg := serve.Config{
		MaxBodyBytes: *maxBody,
		MaxInflight:  *maxInflight,
		MaxReleases:  *maxReleases,
		AllowSeeded:  *allowSeeded,
	}
	if *snapKey != "" {
		key, err := snapshot.LoadPrivateKey(*snapKey)
		if err != nil {
			return fmt.Errorf("-snapshot-key: %w", err)
		}
		cfg.SigningKey = key
	}
	if *snapVerify != "" {
		key, err := snapshot.LoadPublicKey(*snapVerify)
		if err != nil {
			return fmt.Errorf("-snapshot-verify: %w", err)
		}
		cfg.VerifyKey = key
	}

	srv := serve.New(g, w, cfg)
	if *snapDir != "" {
		n, err := srv.RestoreDir(*snapDir)
		if err != nil {
			return fmt.Errorf("restoring snapshots from %s: %w", *snapDir, err)
		}
		fmt.Fprintf(out, "dpgraph: restored %d sealed release(s) from %s\n", n, *snapDir)
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// Bound how long a client may dribble headers or a body; without
		// these, slow-trickled requests pin connections forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	banner := fmt.Sprintf("serving %d vertices / %d edges", g.N(), g.M())
	return runDaemon(out, hs, *addr, banner, serveListening, *drainGrace, srv.StartDrain)
}
