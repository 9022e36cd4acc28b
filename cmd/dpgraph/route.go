package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/snapshot"
)

// runRoute starts the fleet coordinator: a daemon that proxies the
// query API across a pool of `dpgraph serve` replicas with health
// probing, retries, hedging, and a snapshot-restored local fallback
// replica. It loads no graph.
func runRoute(out *os.File, args []string) error {
	fs := flag.NewFlagSet("dpgraph route", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8090", "listen address")
		replicas      = fs.String("replicas", "", "comma-separated replica base URLs (http://host:port); more may register over POST /v1/replicas")
		probeInterval = fs.Duration("probe-interval", cluster.DefaultProbeInterval, "period between /readyz health probes of every replica")
		probeTimeout  = fs.Duration("probe-timeout", 0, "timeout for one health probe (0: half the probe interval)")
		reqTimeout    = fs.Duration("timeout", cluster.DefaultRequestTimeout, "end-to-end deadline per proxied request, retries included; clients may shorten it with X-Request-Timeout")
		maxAttempts   = fs.Int("max-attempts", cluster.DefaultMaxAttempts, "attempts per request across replicas (first try included)")
		retryBudget   = fs.Float64("retry-budget", cluster.DefaultRetryBudget, "retries+hedges allowed as a fraction of live requests (anti-retry-storm bound)")
		hedge         = fs.Duration("hedge", 0, "delay before a point query races a second replica (0: auto from observed p99; negative: hedging off)")
		replication   = fs.Int("replication", 0, "replicas in each release's hash-selected working set (0: all replicas serve all releases)")
		snapDir       = fs.String("snapshot-dir", "", "restore every *.dpsnap in this directory into a local replica that answers point, batch, and stream queries, in the replica wire format and error bound, when all replicas for a release are out")
		snapVerify    = fs.String("snapshot-verify", "", "ed25519 public key (PEM); fallback snapshots must verify against it")
		chaosLatency  = fs.Duration("chaos-latency", 0, "FAULT INJECTION: add this latency to every proxied request")
		chaosErrRate  = fs.Float64("chaos-error-rate", 0, "FAULT INJECTION: fail this fraction of proxied requests with a synthetic transport error")
		chaosHang     = fs.Float64("chaos-hang", 0, "FAULT INJECTION: hang this fraction of proxied requests until their deadline")
		drainGrace    = fs.Duration("drain-grace", 500*time.Millisecond, "after SIGINT/SIGTERM, keep answering this long with /readyz already not-ready")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("route takes no positional arguments, got %q", fs.Args())
	}
	if *probeInterval <= 0 {
		return fmt.Errorf("-probe-interval must be > 0, got %v", *probeInterval)
	}
	if *maxAttempts < 1 {
		return fmt.Errorf("-max-attempts must be >= 1, got %d", *maxAttempts)
	}
	if *retryBudget <= 0 {
		return fmt.Errorf("-retry-budget must be > 0, got %v", *retryBudget)
	}
	if *replication < 0 {
		return fmt.Errorf("-replication must be >= 0, got %d", *replication)
	}
	if *chaosErrRate < 0 || *chaosErrRate > 1 {
		return fmt.Errorf("-chaos-error-rate must be in [0, 1], got %v", *chaosErrRate)
	}
	if *chaosHang < 0 || *chaosHang > 1 {
		return fmt.Errorf("-chaos-hang must be in [0, 1], got %v", *chaosHang)
	}
	if *drainGrace < 0 {
		return fmt.Errorf("-drain-grace must be >= 0, got %v", *drainGrace)
	}

	cfg := cluster.Config{
		ProbeInterval:     *probeInterval,
		ProbeTimeout:      *probeTimeout,
		RequestTimeout:    *reqTimeout,
		MaxAttempts:       *maxAttempts,
		RetryBudget:       *retryBudget,
		HedgeDelay:        *hedge,
		ReplicationFactor: *replication,
		SnapshotDir:       *snapDir,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, "dpgraph: "+format+"\n", args...)
		},
	}
	if *replicas != "" {
		for _, u := range strings.Split(*replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.Replicas = append(cfg.Replicas, u)
			}
		}
	}
	if *snapVerify != "" {
		key, err := snapshot.LoadPublicKey(*snapVerify)
		if err != nil {
			return fmt.Errorf("-snapshot-verify: %w", err)
		}
		cfg.VerifyKey = key
	}
	if *chaosLatency > 0 || *chaosErrRate > 0 || *chaosHang > 0 {
		cfg.Transport = &cluster.ChaosTransport{
			Latency:   *chaosLatency,
			ErrorRate: *chaosErrRate,
			HangRate:  *chaosHang,
		}
		fmt.Fprintf(out, "dpgraph: CHAOS transport active (latency=%v error-rate=%v hang=%v)\n",
			*chaosLatency, *chaosErrRate, *chaosHang)
	}

	coord, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	coord.Start()
	defer coord.Stop()
	hs := &http.Server{
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	banner := fmt.Sprintf("routing %d replica(s)", len(cfg.Replicas))
	return runDaemon(out, hs, *addr, banner, routeListening, *drainGrace, coord.StartDrain)
}
