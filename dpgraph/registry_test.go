package dpgraph

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestMechanismsSortedUniqueAndComplete(t *testing.T) {
	ms := Mechanisms()
	if len(ms) < 10 {
		t.Fatalf("registry has %d mechanisms, want >= 10", len(ms))
	}
	if !sort.SliceIsSorted(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name }) {
		t.Error("Mechanisms() not sorted by name")
	}
	seen := map[string]bool{}
	for _, d := range ms {
		if seen[d.Name] {
			t.Errorf("duplicate mechanism %q", d.Name)
		}
		seen[d.Name] = true
		if d.Summary == "" || d.Ref == "" || d.Sensitivity == "" || d.Guarantee == "" || d.Method == "" {
			t.Errorf("%s: incomplete metadata: %+v", d.Name, d)
		}
	}
	for _, want := range []string{"distance", "apsd", "release", "treedist", "treesssp", "hierarchy", "path", "mst", "matching", "bounded", "covering", "sssp"} {
		if !seen[want] {
			t.Errorf("mechanism %q missing from registry", want)
		}
	}
}

func TestMechanismLookup(t *testing.T) {
	d, ok := Mechanism("distance")
	if !ok || d.Name != "distance" {
		t.Fatalf("lookup distance = (%+v, %v)", d, ok)
	}
	if _, ok := Mechanism("nope"); ok {
		t.Error("unknown mechanism found")
	}
}

// TestRegistryRunnersExecute drives every runnable descriptor against a
// suitable topology and checks it yields a Result with a receipt whose
// mechanism matches the descriptor.
func TestRegistryRunnersExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	grid := Grid(4)
	gw := UniformRandomWeights(grid, 0.1, 1, rng)
	tree := BalancedBinaryTree(15)
	tw := UniformRandomWeights(tree, 0.1, 1, rng)
	path := PathGraph(9)
	pw := UniformRandomWeights(path, 0.1, 1, rng)
	bip := CompleteBipartite(4, 4)
	bw := UniformRandomWeights(bip, 0.1, 1, rng)

	for _, d := range Mechanisms() {
		if d.Run == nil {
			continue
		}
		g, w := grid, gw
		switch {
		case d.NeedsTree:
			g, w = tree, tw
		case d.NeedsPath:
			g, w = path, pw
		case d.Name == "matching" || d.Name == "maxmatching":
			g, w = bip, bw
		}
		pg, err := New(g, PrivateWeights(w), WithEpsilon(1), WithDelta(1e-6), WithDeterministicSeed(int64(len(d.Name))))
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		q := Args{S: 0, T: g.N() - 1, Root: 0}
		if d.NeedsMaxWeight {
			q.MaxWeight = 1
		}
		res, err := d.Run(pg, q)
		if err != nil {
			t.Errorf("%s: %v", d.Name, err)
			continue
		}
		info := res.Info()
		if info.Receipt.Mechanism == "" {
			t.Errorf("%s: result has no receipt", d.Name)
		}
		if res.Bound(0.05) <= 0 {
			t.Errorf("%s: nonpositive bound", d.Name)
		}
		if len(pg.Receipts()) != 1 {
			t.Errorf("%s: %d receipts after one run", d.Name, len(pg.Receipts()))
		}
	}
}

// TestRegistryCompleteness pins the wiring contract of every
// descriptor: a non-nil runner (with documented exceptions), complete
// doc strings, and an Oracle runner wherever the mechanism's result
// materializes a distance structure. Adding a mechanism without wiring
// it fully — the registry's historical failure mode — fails here.
func TestRegistryCompleteness(t *testing.T) {
	// Mechanisms whose inputs cannot be conveyed through positional Args
	// (and must say so in their Summary): programmatic API only.
	noRunner := map[string]bool{
		"covering": true, // explicit covering set cannot be passed positionally
	}
	// Mechanisms whose results materialize distances between arbitrary
	// pairs and therefore must offer the release-once/query-many Oracle
	// path. Everything else must NOT have one, so this list cannot rot.
	wantOracle := map[string]bool{
		"apsd":      true,
		"bounded":   true,
		"hierarchy": true,
		"release":   true,
		"treedist":  true,
		"treesssp":  true,
	}
	knownArg := map[string]bool{"s": true, "t": true, "root": true}

	seen := map[string]bool{}
	for _, d := range Mechanisms() {
		seen[d.Name] = true
		if d.Name == "" || d.Method == "" || d.Summary == "" || d.Ref == "" || d.Sensitivity == "" || d.Guarantee == "" {
			t.Errorf("%s: incomplete doc metadata: %+v", d.Name, d)
		}
		if noRunner[d.Name] {
			if d.Run != nil {
				t.Errorf("%s: listed as runner-less but has a runner; update the exception list", d.Name)
			}
			if !strings.Contains(d.Summary, "programmatic API only") {
				t.Errorf("%s: runner-less mechanism must say %q in its Summary", d.Name, "programmatic API only")
			}
		} else if d.Run == nil {
			t.Errorf("%s: nil runner (not in the documented exception list)", d.Name)
		}
		if wantOracle[d.Name] && d.Oracle == nil {
			t.Errorf("%s: materializes distances but has no Oracle runner", d.Name)
		}
		if !wantOracle[d.Name] && d.Oracle != nil {
			t.Errorf("%s: has an Oracle runner; add it to the expected list", d.Name)
		}
		for _, a := range d.Args {
			if !knownArg[a] {
				t.Errorf("%s: Args declares %q, which parseArgs cannot map", d.Name, a)
			}
		}
		for _, a := range d.OracleArgs {
			if !knownArg[a] {
				t.Errorf("%s: OracleArgs declares %q, which parseArgs cannot map", d.Name, a)
			}
		}
		if d.Oracle == nil && len(d.OracleArgs) > 0 {
			t.Errorf("%s: OracleArgs without an Oracle runner", d.Name)
		}
	}
	for name := range noRunner {
		if !seen[name] {
			t.Errorf("exception list names unknown mechanism %q", name)
		}
	}
	for name := range wantOracle {
		if !seen[name] {
			t.Errorf("oracle list names unknown mechanism %q", name)
		}
	}
}

// TestRegistryOracleRunnersExecute materializes every Oracle runner once
// and answers a query from it: one receipt, zero further budget.
func TestRegistryOracleRunnersExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	grid := Grid(4)
	gw := UniformRandomWeights(grid, 0.1, 1, rng)
	tree := BalancedBinaryTree(15)
	tw := UniformRandomWeights(tree, 0.1, 1, rng)
	path := PathGraph(9)
	pw := UniformRandomWeights(path, 0.1, 1, rng)
	for _, d := range Mechanisms() {
		if d.Oracle == nil {
			continue
		}
		g, w := grid, gw
		switch {
		case d.NeedsTree:
			g, w = tree, tw
		case d.NeedsPath:
			g, w = path, pw
		}
		pg, err := New(g, PrivateWeights(w), WithEpsilon(1), WithDelta(1e-6), WithDeterministicSeed(11))
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		q := Args{Root: 0}
		if d.NeedsMaxWeight {
			q.MaxWeight = 1
		}
		oracle, res, err := d.Oracle(pg, q)
		if err != nil {
			t.Errorf("%s: %v", d.Name, err)
			continue
		}
		if res.Info().Receipt.Mechanism == "" {
			t.Errorf("%s: oracle release carries no receipt", d.Name)
		}
		if oracle.N() != g.N() {
			t.Errorf("%s: oracle serves %d vertices, topology has %d", d.Name, oracle.N(), g.N())
		}
		if _, err := oracle.Distance(0, g.N()-1); err != nil {
			t.Errorf("%s: oracle query failed: %v", d.Name, err)
		}
		if len(pg.Receipts()) != 1 {
			t.Errorf("%s: %d receipts after one materialization", d.Name, len(pg.Receipts()))
		}
	}
}

// TestRegistryRunMatchesOracle: a pairwise mechanism's Run answers
// what its Oracle answers for the same pair on a session with the same
// seed, under the same bound.
func TestRegistryRunMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	grid := Grid(4)
	gw := UniformRandomWeights(grid, 0.1, 1, rng)
	tree := BalancedBinaryTree(15)
	tw := UniformRandomWeights(tree, 0.1, 1, rng)
	path := PathGraph(9)
	pw := UniformRandomWeights(path, 0.1, 1, rng)
	for _, name := range []string{"apsd", "bounded", "hierarchy", "treedist"} {
		d, ok := Mechanism(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		g, w := grid, gw
		switch {
		case d.NeedsTree:
			g, w = tree, tw
		case d.NeedsPath:
			g, w = path, pw
		}
		session := func() *PrivateGraph {
			pg, err := New(g, PrivateWeights(w), WithEpsilon(1), WithDelta(1e-6), WithDeterministicSeed(13))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return pg
		}
		q := Args{S: 1, T: g.N() - 2}
		if d.NeedsMaxWeight {
			q.MaxWeight = 1
		}
		res, err := d.Run(session(), q)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		oracle, _, err := d.Oracle(session(), q)
		if err != nil {
			t.Fatalf("%s: Oracle: %v", name, err)
		}
		want, err := oracle.Distance(q.S, q.T)
		if err != nil {
			t.Fatalf("%s: oracle query: %v", name, err)
		}
		qr, ok := res.(*QueryResult)
		if !ok {
			t.Fatalf("%s: Run returned %T, want *QueryResult", name, res)
		}
		if qr.Value != want {
			t.Errorf("%s: Run answers %v, Oracle %v", name, qr.Value, want)
		}
		if got, want := res.Bound(0.05), oracle.Bound(0.05); got != want {
			t.Errorf("%s: Run bound %v, Oracle bound %v", name, got, want)
		}
	}
}

// TestRegistryRunnersRejectBadPairs ensures pair validation happens
// before budget is spent.
func TestRegistryRunnersRejectBadPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := Grid(4)
	w := UniformRandomWeights(g, 0.1, 1, rng)
	for _, name := range []string{"apsd", "treedist", "hierarchy"} {
		d, ok := Mechanism(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		pg, err := New(g, PrivateWeights(w), WithDeterministicSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(pg, Args{S: -1, T: 99}); err == nil {
			t.Errorf("%s: bad pair accepted", name)
		}
		if eps, _ := pg.Spent(); eps != 0 {
			t.Errorf("%s: bad pair spent %g of budget", name, eps)
		}
	}
}
