// Command perfbench is the repository benchmark. From a seed it
// generates a road network (the internal/traffic city model: a street
// grid with arterials and removed blocks, 08:00 rush-hour travel times
// as the private weights) and its traffic, drives one workload through
// the public functions of each layer, checks every answer, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics.
//
// Workloads:
//
//   - publish: the write path. Each operation runs private weights ->
//     PrivateGraph.Release -> auto index -> signed Seal -> verifying
//     Unseal -> first answer, with no HTTP.
//   - point: GET point queries to one replica, Zipf-popular trips from a
//     CommuteTrips pool; an open loop at a fixed rate, then a closed-loop
//     capacity phase.
//   - batch: closed-loop POSTs of 256-pair tuple batches, alternating one
//     depot to 256 destinations and 256 unrelated trips; no pair repeats.
//   - routed: the point traffic at the same rate through a
//     cluster.Coordinator fronting two replicas.
//
// Every workload reports every end-to-end metric. The serving workloads
// take the write-path metrics (publish_s, boot_s, abs_err_mean,
// artifact_mib) from their setups, which publish and boot the release
// they serve, and latency and pairs per CPU-second from the closed loop.
// In publish an operation is the whole pipeline, and every setup after
// the warm-up is measured like one: latency is per pipeline and pairs
// per CPU-second is the first answers of the freshly booted replica.
// boot_s is timed on boots after a warm-up boot (bootTimes).
//
// With --trace 0 the run reports end-to-end metrics; with --trace 1 it
// records spans at the layer boundaries and reports per-layer metrics.
// Load comes from at most as many client goroutines, each with one
// keep-alive connection, as the host has cores; servers run in process
// on loopback.
// Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload point --seed 1 --seconds 7 --trace 0
package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// config sets the size of a run. defaultConfig is the benchmark; the
// self-test shrinks it.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phases
	trace    bool
	workDir  string // scratch directory for artifacts and spans

	side         int     // city side: side*side intersections
	setups       int     // setups per run; setup_s is their median
	clients      int     // client goroutines and connections
	pointRate    float64 // open-loop rate of point and routed, req/s
	poolSize     int     // CommuteTrips pool of the point traffic
	zipfS        float64 // Zipf exponent of trip popularity (see defaultConfig)
	batchSize    int     // pairs per batch request
	errOrigins   int     // error sample: origins...
	errTargets   int     // ...times destinations per origin
	checkPairs   int     // error-sample pairs also checked against Dijkstra
	warmRequests int     // warm-up requests per setup
	windows      int     // latency quantiles are medians over this many windows
	probeSeconds float64 // traced runs: length of the routed probe
	plant        bool    // plant one wrong answer (self-test)
}

// The point traffic's pool size and Zipf exponent are assumptions: no
// measured skew of trip popularity is at hand. The pool is kept far
// below the replica's result cache (index.DefaultCacheCapacity, 262,144
// pairs) on purpose. point is the cache-hit side of the read path, the
// one where serve, net/http and allocation dominate, as the 1,024-URL
// pool of dpgraph bench-serve makes it; batch is the miss side. After
// warm-up every trip drawn before is a hit, so the hit ratio follows
// from how many distinct trips a run draws, and the exponent moves
// little else.
func defaultConfig() config {
	return config{
		side:         225,
		setups:       3,
		clients:      runtime.NumCPU(),
		pointRate:    1000,
		poolSize:     4096,
		zipfS:        1.1,
		batchSize:    256,
		errOrigins:   64,
		errTargets:   128,
		checkPairs:   256,
		warmRequests: 2000,
		windows:      16,
		probeSeconds: 2,
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. Each workload's meaning of latency and pairs/s is in the
// workload's runner. Tail latency and wall-clock pairs per second are
// per-layer metrics of the load generator (load.latency_p99_ms,
// load.pairs_per_s) instead: on a small shared host they follow the
// neighbours' load more than the program's, too unsteadily to bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"publish_s", "s"},
	{"boot_s", "s"},
	{"abs_err_mean", "distance"},
	{"artifact_mib", "MiB"},
	{"latency_p50_ms", "ms"},
	{"pairs_per_cpu_s", "pairs/cpu-s"},
	{"heap_mib", "MiB"},
}

// perLayer are the metrics of a traced run, named after the module they
// measure.
var perLayer = []metricDef{
	{"dp.fill_ns_per_draw", "ns"},
	{"dpgraph.release_ms", "ms"},
	{"index.ch_build_s", "s"},
	{"index.hl_label_s", "s"},
	{"index.shortcuts_per_edge", "count"},
	{"index.label_entries_per_vertex", "count"},
	{"snapshot.seal_s", "s"},
	{"snapshot.unseal_verify_s", "s"},
	{"snapshot.first_answer_ms", "ms"},
	{"index.hl_query_ns", "ns"},
	{"dpgraph.point_ns", "ns"},
	{"dpgraph.cache_hit_ratio", "ratio"},
	{"dpgraph.batch_us", "us"},
	{"dpgraph.sweep_share", "ratio"},
	{"serve.handler_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.bytes_per_req", "B"},
	{"runtime.gc_per_10k_req", "count"},
	{"cluster.hop_us", "us"},
	{"cluster.attempts_per_req", "count"},
	{"cluster.hedges_per_req", "count"},
	{"cluster.hedge_win_ratio", "ratio"},
	{"cluster.retries_per_req", "count"},
	{"load.lateness_p99_ms", "ms"},
	{"load.latency_p99_ms", "ms"},
	{"load.pairs_per_s", "pairs/s"},
	{"trace.client_self_us", "us"},
	{"trace.cluster_self_us", "us"},
	{"trace.attempt_self_us", "us"},
	{"trace.serve_self_us", "us"},
	{"trace.overhead_us", "us"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the state of one run.
type env struct {
	cfg  *config
	in   *input
	key  ed25519.PrivateKey
	rec  *recorder // nil in untraced runs
	out  io.Writer // progress and metric lines
	errw io.Writer // diagnostics

	errMu sync.Mutex // serialises diagnostics from client goroutines

	// tracing is on while a traced phase runs; clients then send span ids.
	tracing    atomic.Bool
	values     map[string]float64
	attempted  atomic.Int64
	failed     atomic.Int64
	mismatches atomic.Int64
}

func (e *env) set(name string, v float64) { e.values[name] = v }

// mismatch records a failed correctness check.
func (e *env) mismatch(format string, args ...any) {
	if e.mismatches.Add(1) <= 5 {
		e.errMu.Lock()
		fmt.Fprintf(e.errw, "MISMATCH: "+format+"\n", args...)
		e.errMu.Unlock()
	}
}

var workloads = map[string]func(*env) error{
	"publish": runPublish,
	"point":   runPoint,
	"batch":   runBatch,
	"routed":  runRouted,
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "publish, point, batch or routed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 7, "length of the measured phases in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/run", "scratch directory")
	flag.Parse()
	cfg.trace = *trace == 1
	res, err := run(&cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and returns its result line.
func run(cfg *config, out, errw io.Writer) (*result, error) {
	runW, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	e := &env{cfg: cfg, out: out, errw: errw, values: map[string]float64{}}
	if cfg.trace {
		e.rec = newRecorder()
	}
	printHost(e)
	in, err := newInput(cfg)
	if err != nil {
		return nil, err
	}
	e.in = in
	fmt.Fprintf(out, "input: city side %d, %d intersections, %d road segments, %d pool trips, %d error-sample pairs; generated in %.3f s (in no metric)\n",
		cfg.side, in.city.G.N(), in.city.G.M(), len(in.pool), len(in.errPairs), in.seconds)
	// The signing key is part of the deployment, not of a setup.
	_, e.key, err = ed25519.GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	if err := runW(e); err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := e.rec.writeFile(filepath.Join(cfg.workDir, "..", fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	res := &result{
		Correct:   e.mismatches.Load() == 0 && e.failed.Load() == 0,
		Attempted: e.attempted.Load(),
		Failed:    e.failed.Load(),
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := e.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "metric %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	fmt.Fprintf(out, "checks: %d mismatches, %d failed of %d attempted\n", e.mismatches.Load(), res.Failed, res.Attempted)
	return res, nil
}

// printHost prints the host metadata line.
func printHost(e *env) {
	host := map[string]any{
		"cpu":        cpuModel(),
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"seed":       e.cfg.seed,
		"workload":   e.cfg.workload,
		"trace":      e.cfg.trace,
		"seconds":    e.cfg.seconds,
	}
	b, _ := json.Marshal(host)
	fmt.Fprintf(e.out, "host: %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the revision the binary was built from, when the build saw
// a git checkout.
func commit() string {
	if c := vcsRevision(); c != "" {
		return c
	}
	return "unknown"
}

// sourceDigest hashes the module sources under the working directory
// (the repository root), identifying the code measured even where the
// checkout carries no git metadata.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// heapMiB is the Go heap in use after a collection. The second
// collection empties the sync.Pool victim caches the first one filled.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

func sinceS(t time.Time) float64 { return time.Since(t).Seconds() }
