// Command dpgraph answers differentially private queries over a weighted
// graph read from a file (text edge-list or JSON; see internal/graph/io.go
// for the formats). The topology is treated as public and the weights as
// private; each invocation opens one dpgraph.PrivateGraph session and
// spends the stated privacy budget once.
//
// Subcommands are the dpgraph mechanism registry; run with no arguments
// to list them. Examples:
//
//	dpgraph -graph city.txt -eps 1 distance 3 17
//	dpgraph -graph city.txt -eps 1 -json path 3 17
//	dpgraph -graph city.txt -eps 1 -delta 1e-6 -maxweight 16 apsd 3 17
//	dpgraph -graph tree.txt -eps 1 treedist 3 17
//	dpgraph -graph city.txt -eps 1 mst
//
// The query subcommand is the release-once / query-many path: it
// materializes one release (spending the budget exactly once), then
// answers every s-t pair read from stdin as free post-processing:
//
//	echo "3 17\n3 9\n12 0" | dpgraph -graph city.txt -eps 1 query release
//	dpgraph -graph tree.txt query treesssp 0 < pairs.txt
//	echo '[[0,9],[4,12]]' | dpgraph -graph city.txt -json query apsd
//	dpgraph -graph city.txt -workers 0 query release < pairs.txt
//	dpgraph -graph city.txt -index ch -workers 0 query release < pairs.txt
//
// Large pair batches can be answered in parallel with -workers N (0
// uses GOMAXPROCS): oracles are goroutine-safe and queries spend no
// budget, so sharding the batch is pure post-processing. For the
// synthetic-graph release, -index MODE (auto, ch, alt, hl) additionally
// builds a precomputed speedup index over the materialized release —
// contraction hierarchy, landmark A*, or hub labels — so each worker
// answers its pairs orders of magnitude faster than per-query Dijkstra;
// the two flags multiply.
//
// Pairs are text lines "s t" or a JSON array ([[s,t], ...] or
// [{"s":..,"t":..}, ...]); the format is sniffed from the input.
//
// The serve subcommand turns the same machinery into a long-running
// HTTP daemon: POST /v1/releases materializes named, independently
// budgeted releases, and the distance endpoints answer unboundedly
// many queries from their oracles with zero extra budget (see
// internal/serve). bench-serve is the matching load generator:
//
//	dpgraph -graph city.txt serve -addr 127.0.0.1:8080
//	dpgraph bench-serve -url http://127.0.0.1:8080 -release main -n 100000 -c 32
//
// Noise is crypto-grade unless -seed is given.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/dpgraph"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Stdout, os.Stdin, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dpgraph:", err)
		os.Exit(1)
	}
}

// jsonOutput is the machine-readable envelope emitted by -json. The
// result itself carries the mechanism name, privacy cost, and receipt
// (via its embedded release metadata); the envelope only adds the
// error bound evaluated at -gamma.
type jsonOutput struct {
	// Bound is the high-probability additive error bound at -gamma.
	Bound  float64 `json:"bound"`
	Gamma  float64 `json:"gamma"`
	Result any     `json:"result"`
}

func run(out *os.File, in io.Reader, args []string) error {
	fs := flag.NewFlagSet("dpgraph", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "path to graph file (text edge-list or JSON)")
		eps       = fs.Float64("eps", 1, "privacy parameter epsilon")
		delta     = fs.Float64("delta", 0, "privacy parameter delta (composition mechanisms)")
		gamma     = fs.Float64("gamma", 0.05, "failure probability for error bounds")
		scale     = fs.Float64("scale", 1, "l1 influence of one individual on the weights")
		maxWeight = fs.Float64("maxweight", 0, "weight cap M for bounded-weight mechanisms")
		seed      = fs.Int64("seed", 0, "deterministic noise seed (0: crypto-grade noise)")
		jsonOut   = fs.Bool("json", false, "emit machine-readable JSON (value, error bound, receipt)")
		workers   = fs.Int("workers", 1, "parallel workers answering query-mode pairs (0: GOMAXPROCS)")
		indexMode = fs.String("index", "off", "query-mode speedup index over the release: off, auto, ch, alt, hl")
	)
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		return err
	}
	// bench-serve targets a running server, unseal an artifact, and
	// version/keygen nothing at all — none reads a graph file, so they
	// dispatch before the -graph requirement.
	if fs.NArg() >= 1 {
		switch fs.Arg(0) {
		case "bench-serve", "route", "version", "keygen", "unseal":
			if err := rejectGlobalFlags(fs, fs.Arg(0), nil); err != nil {
				return err
			}
			rest := fs.Args()[1:]
			switch fs.Arg(0) {
			case "bench-serve":
				return runBenchServe(out, rest)
			case "route":
				return runRoute(out, rest)
			case "version":
				return runVersion(out, rest)
			case "keygen":
				return runKeygen(out, rest)
			default:
				return runUnseal(out, in, rest)
			}
		}
	}
	if *graphPath == "" || fs.NArg() < 1 {
		usage(fs)
		return fmt.Errorf("need -graph and a subcommand")
	}
	cmd := fs.Arg(0)
	queryMode := cmd == "query"
	sealMode := cmd == "seal"
	mechArgs := fs.Args()[1:]
	if queryMode || sealMode {
		if fs.NArg() < 2 {
			return fmt.Errorf("%[1]s needs a mechanism: %[1]s MECHANISM [args]", fs.Arg(0))
		}
		cmd = fs.Arg(1)
		mechArgs = fs.Args()[2:]
	}

	if cmd == "serve" {
		// The daemon materializes releases from POST /v1/releases specs,
		// each carrying its own privacy parameters; session flags here
		// would be dead settings, so reject them loudly.
		if err := rejectGlobalFlags(fs, "serve", map[string]bool{"graph": true}); err != nil {
			return err
		}
		g, w, err := loadGraph(*graphPath)
		if err != nil {
			return err
		}
		return runServe(out, g, w, fs.Args()[1:])
	}

	desc, ok := dpgraph.Mechanism(cmd)
	if !ok || (!queryMode && !sealMode && desc.Run == nil) {
		usage(fs)
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
	if (queryMode || sealMode) && desc.Oracle == nil {
		return fmt.Errorf("mechanism %q releases no distance oracle; oracle-capable: %s", cmd, strings.Join(dpgraph.OracleMechanisms(), " "))
	}
	if desc.NeedsMaxWeight && !(*maxWeight > 0) {
		return fmt.Errorf("%s requires -maxweight", cmd)
	}

	g, w, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}

	idxMode, err := dpgraph.ParseQueryIndexMode(*indexMode)
	if err != nil {
		return err
	}
	if idxMode != dpgraph.IndexOff && !queryMode && !sealMode {
		return fmt.Errorf("-index only applies to the query and seal subcommands")
	}

	if queryMode || sealMode {
		// ReleaseSpec reads zero-valued parameters as "use the default",
		// but a flag explicitly set to an invalid value must still fail
		// loudly, not silently run at the default. The flag defaults are
		// all valid, so any invalid value here was user-supplied.
		if !(*eps > 0) {
			return fmt.Errorf("epsilon must be positive, got %g", *eps)
		}
		if !(*gamma > 0 && *gamma < 1) {
			return fmt.Errorf("gamma must be in (0, 1), got %g", *gamma)
		}
		if !(*scale > 0) {
			return fmt.Errorf("scale must be positive, got %g", *scale)
		}
		// The CLI and the HTTP server share one release-construction
		// path: flags assemble the same spec a POST /v1/releases body
		// carries.
		spec := dpgraph.ReleaseSpec{
			Mechanism: desc.Name,
			MaxWeight: *maxWeight,
			Epsilon:   *eps,
			Delta:     *delta,
			Gamma:     *gamma,
			Scale:     *scale,
			Seed:      *seed,
			Index:     *indexMode,
		}
		if sealMode {
			if *workers != 1 {
				return fmt.Errorf("-workers only applies to the query subcommand")
			}
			return runSeal(out, g, w, desc, spec, mechArgs)
		}
		q, err := parseArgs(desc.Name, desc.OracleArgs, mechArgs)
		if err != nil {
			return err
		}
		spec.Root = q.Root
		return runQuery(out, in, g, w, spec, desc.Name, *gamma, *jsonOut, *workers)
	}
	if *workers != 1 {
		return fmt.Errorf("-workers only applies to the query subcommand")
	}

	opts := []dpgraph.Option{
		dpgraph.WithEpsilon(*eps),
		dpgraph.WithDelta(*delta),
		dpgraph.WithGamma(*gamma),
		dpgraph.WithScale(*scale),
	}
	if *seed != 0 {
		opts = append(opts, dpgraph.WithDeterministicSeed(*seed))
	}
	pg, err := dpgraph.New(g, dpgraph.PrivateWeights(w), opts...)
	if err != nil {
		return err
	}

	q, err := parseArgs(desc.Name, desc.Args, mechArgs)
	if err != nil {
		return err
	}
	q.MaxWeight = *maxWeight

	res, err := desc.Run(pg, q)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonOutput{
			Bound:  res.Bound(*gamma),
			Gamma:  *gamma,
			Result: jsonSafeResult(res),
		})
	}
	rec := res.Info().Receipt
	fmt.Fprintln(out, res.Summary())
	if d, ok := res.(dpgraph.Detailer); ok {
		fmt.Fprintln(out, d.Detail())
	}
	fmt.Fprintf(out, "error bound at gamma=%g: %.4f\n", *gamma, res.Bound(*gamma))
	fmt.Fprintf(out, "privacy receipt: %s\n", rec)
	return nil
}

// queryJSONOutput is the -json envelope of the query subcommand: one
// receipt for the release, then every answered pair.
type queryJSONOutput struct {
	Mechanism string             `json:"mechanism"`
	Bound     float64            `json:"bound"`
	Gamma     float64            `json:"gamma"`
	Receipt   dpgraph.Receipt    `json:"receipt"`
	Results   []serve.PairAnswer `json:"results"`
}

// runQuery is the release-once / query-many path: materialize the
// spec's release (the only budget-charging step), then answer every
// pair from the input as free post-processing of the oracle — sharded
// across workers goroutines when requested, which is safe because
// oracles are goroutine-safe and queries touch no budget state.
func runQuery(out *os.File, in io.Reader, g *dpgraph.Graph, w []float64, spec dpgraph.ReleaseSpec, mech string, gamma float64, jsonOut bool, workers int) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", workers)
	}
	pairs, err := readPairs(in)
	if err != nil {
		return err
	}
	if len(pairs) == 0 {
		// Refuse before materializing the release: an empty workload must
		// not charge the budget.
		return fmt.Errorf("query needs at least one s-t pair")
	}
	oracle, res, err := spec.Materialize(g, dpgraph.PrivateWeights(w))
	if err != nil {
		return err
	}
	values, err := answerPairs(oracle, pairs, workers)
	if err != nil {
		return err
	}
	return writeAnswers(out, jsonOut, pairs, values, queryJSONOutput{
		Mechanism: mech,
		Bound:     oracle.Bound(gamma),
		Gamma:     gamma,
		Receipt:   res.Info().Receipt,
	}, fmt.Sprintf("%d queries answered from one %q release (zero extra budget)", len(pairs), mech))
}

// writeAnswers prints answered pairs for query and unseal -query: the
// -json envelope (head plus one result per pair), or one "s t value"
// line per pair followed by footer, the error bound and the receipt as
// comment lines.
func writeAnswers(out io.Writer, jsonOut bool, pairs []dpgraph.VertexPair, values []float64, head queryJSONOutput, footer string) error {
	if jsonOut {
		head.Results = make([]serve.PairAnswer, len(pairs))
		for i, p := range pairs {
			head.Results[i] = serve.PairAnswer{S: p.S, T: p.T, Value: values[i]}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(head)
	}
	for i, p := range pairs {
		fmt.Fprintf(out, "%d %d %.4f\n", p.S, p.T, values[i])
	}
	fmt.Fprintf(out, "# %s\n", footer)
	fmt.Fprintf(out, "# error bound at gamma=%g: %.4f\n", head.Gamma, head.Bound)
	fmt.Fprintf(out, "# privacy receipt: %s\n", head.Receipt)
	return nil
}

// answerPairs evaluates the batch against the oracle, sharding it into
// contiguous chunks across workers goroutines (0 means GOMAXPROCS).
// Answer order always matches input order; with one worker the batch
// goes through the oracle's own Distances (which may group by source).
func answerPairs(oracle dpgraph.DistanceOracle, pairs []dpgraph.VertexPair, workers int) ([]float64, error) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := len(pairs); workers > max {
		workers = max
	}
	if workers <= 1 {
		return oracle.Distances(pairs)
	}
	values := make([]float64, len(pairs))
	errs := make([]error, workers)
	chunk := (len(pairs) + workers - 1) / workers
	var wg sync.WaitGroup
	for wk := 0; wk*chunk < len(pairs); wk++ {
		lo, hi := wk*chunk, (wk+1)*chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			part, err := oracle.Distances(pairs[lo:hi])
			if err != nil {
				errs[wk] = err
				return
			}
			copy(values[lo:hi], part)
		}(wk, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return values, nil
}

// readPairs decodes the query pairs from stdin with the HTTP batch
// handler's parser (serve.ParsePairs): text lines "s t" or a JSON array
// ([[s,t], ...] or [{"s":..,"t":..}, ...]) under one strict grammar.
func readPairs(in io.Reader) ([]dpgraph.VertexPair, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, err
	}
	pairs, err := serve.ParsePairs(data)
	if errors.Is(err, serve.ErrNoPairs) {
		return nil, fmt.Errorf("query needs s-t pairs on stdin (text lines \"s t\" or a JSON array)")
	}
	return pairs, err
}

// loadGraph reads the -graph file and insists on a weight vector (the
// private input every subcommand consumes).
func loadGraph(path string) (*dpgraph.Graph, []float64, error) {
	g, w, err := dpgraph.ReadGraphFile(path)
	if err != nil {
		return nil, nil, err
	}
	if w == nil {
		return nil, nil, fmt.Errorf("graph file %s carries no weights", path)
	}
	return g, w, nil
}

// rejectGlobalFlags errors when any global flag outside allowed was set
// on a subcommand that cannot honor it (serve, bench-serve), instead of
// silently ignoring the setting.
func rejectGlobalFlags(fs *flag.FlagSet, cmd string, allowed map[string]bool) error {
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if !allowed[f.Name] {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("%s does not use %s (privacy parameters travel in each release spec); see %s -h", cmd, strings.Join(bad, " "), cmd)
	}
	return nil
}

// unreachablePairResult is the -json shape of a pairwise result whose
// released value is ±Inf: the pairAnswer null+unreachable convention
// over the usual release metadata.
type unreachablePairResult struct {
	dpgraph.ReleaseInfo
	Source      int      `json:"source"`
	Target      int      `json:"target"`
	Value       *float64 `json:"value"`
	Unreachable bool     `json:"unreachable"`
}

// jsonSafeResult rewraps results whose released values may be ±Inf
// (distances on topology-disconnected pairs) so the -json envelope
// encodes with the same null+unreachable convention the query
// subcommand and the HTTP handlers use, instead of failing with
// encoding/json's "unsupported value".
func jsonSafeResult(res dpgraph.Result) any {
	switch r := res.(type) {
	case *dpgraph.DistanceResult:
		if !math.IsInf(r.Value, 0) {
			return res
		}
		return unreachablePairResult{ReleaseInfo: r.ReleaseInfo, Source: r.Source, Target: r.Target, Unreachable: true}
	case *dpgraph.QueryResult:
		if !math.IsInf(r.Value, 0) {
			return res
		}
		return unreachablePairResult{ReleaseInfo: r.ReleaseInfo, Source: r.Source, Target: r.Target, Unreachable: true}
	case *dpgraph.SSSPResult:
		finite := true
		for _, d := range r.Dist {
			if math.IsInf(d, 0) {
				finite = false
				break
			}
		}
		if finite {
			return res
		}
		dist := make([]*float64, len(r.Dist))
		var unreachable []int
		for i, d := range r.Dist {
			if dist[i] = serve.FiniteOrNil(d); dist[i] == nil {
				unreachable = append(unreachable, i)
			}
		}
		return struct {
			dpgraph.ReleaseInfo
			Source      int        `json:"source"`
			Dist        []*float64 `json:"dist"`
			Unreachable []int      `json:"unreachable"`
		}{r.ReleaseInfo, r.Source, dist, unreachable}
	}
	return res
}

// parseArgs maps positional arguments onto the declared parameter names.
func parseArgs(mech string, names []string, args []string) (dpgraph.Args, error) {
	var q dpgraph.Args
	if len(args) != len(names) {
		return q, fmt.Errorf("%s needs %d argument(s): %s", mech, len(names), strings.Join(names, " "))
	}
	for i, name := range names {
		v, err := strconv.Atoi(args[i])
		if err != nil {
			return q, fmt.Errorf("bad %s argument %q", name, args[i])
		}
		switch name {
		case "s":
			q.S = v
		case "t":
			q.T = v
		case "root":
			q.Root = v
		default:
			return q, fmt.Errorf("descriptor %s declares unknown argument %q", mech, name)
		}
	}
	return q, nil
}

// usage renders the flag help plus the mechanism registry, so the
// subcommand list can never drift from the library.
func usage(fs *flag.FlagSet) {
	fmt.Fprintln(os.Stderr, "usage: dpgraph -graph FILE [flags] SUBCOMMAND [args]")
	fmt.Fprintln(os.Stderr, "       dpgraph -graph FILE [flags] query MECHANISM [args] < pairs")
	fmt.Fprintln(os.Stderr, "       dpgraph -graph FILE [flags] seal MECHANISM [-out FILE] [-key PEM] [args]")
	fmt.Fprintln(os.Stderr, "       dpgraph unseal [-in FILE] [-verify PEM] [-json] [-query < pairs]")
	fmt.Fprintln(os.Stderr, "       dpgraph -graph FILE serve [-addr HOST:PORT] [serve flags]")
	fmt.Fprintln(os.Stderr, "       dpgraph bench-serve [-release NAME] [bench flags]")
	fmt.Fprintln(os.Stderr, "       dpgraph route [-replicas URL,URL,...] [route flags]")
	fmt.Fprintln(os.Stderr, "       dpgraph keygen [-out KEY] [-pub PUB] | dpgraph version [-json]")
	fmt.Fprintln(os.Stderr, "\nflags:")
	fs.PrintDefaults()
	fmt.Fprintln(os.Stderr, "\nsubcommands (from the dpgraph mechanism registry):")
	for _, d := range dpgraph.Mechanisms() {
		// A mechanism with only an Oracle runner is still a subcommand
		// (through query mode); hiding it would make the listing lie.
		if d.Run == nil && d.Oracle == nil {
			continue
		}
		argHint := ""
		if len(d.Args) > 0 {
			argHint = " " + strings.Join(d.Args, " ")
		}
		extra := ""
		if d.NeedsMaxWeight {
			extra = " (requires -maxweight)"
		}
		if d.Run == nil {
			extra += " (query mode only)"
		}
		fmt.Fprintf(os.Stderr, "  %-12s%-8s %s%s\n", d.Name, argHint, d.Summary, extra)
		fmt.Fprintf(os.Stderr, "  %12s         %s; sensitivity: %s; guarantee: %s\n", "", d.Ref, d.Sensitivity, d.Guarantee)
	}
	fmt.Fprintf(os.Stderr, "\nquery (release once, answer many): materializes one release, then\n"+
		"answers every \"s t\" pair from stdin (text lines or JSON array) with\n"+
		"zero extra budget; -workers N answers the batch in parallel, and\n"+
		"-index MODE (auto, ch, alt, hl) serves synthetic-graph releases from\n"+
		"a precomputed contraction-hierarchy, landmark, or hub-label index.\n"+
		"Oracle-capable mechanisms: %s\n", strings.Join(dpgraph.OracleMechanisms(), " "))
	fmt.Fprintln(os.Stderr, "\nserve: long-running HTTP daemon over the same machinery — POST\n"+
		"/v1/releases materializes named releases, GET/POST distance\n"+
		"endpoints answer queries with zero extra budget; bench-serve is\n"+
		"its load generator. Each prints its own -h.")
	fmt.Fprintln(os.Stderr, "\nseal / unseal: write a materialized release as a signed snapshot\n"+
		"artifact and restore it elsewhere — bit-identical answers, the\n"+
		"origin receipt carried along, zero budget spent on restore. keygen\n"+
		"mints the ed25519 pair; version prints the build stamp artifacts\n"+
		"embed as their writer.")
}
