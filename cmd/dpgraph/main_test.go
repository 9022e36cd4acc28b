package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dpgraph"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const pathGraph = "graph 4\nedge 0 1 2.5\nedge 1 2 1\nedge 2 3 1\n"

// capture runs the CLI with stdout redirected to a pipe file and an
// empty stdin.
func capture(t *testing.T, args []string) (string, error) {
	return captureWithStdin(t, "", args)
}

// captureWithStdin runs the CLI with the given stdin content.
func captureWithStdin(t *testing.T, stdin string, args []string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(f, strings.NewReader(stdin), args)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestRunDistanceText(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	out, err := capture(t, []string{"-graph", path, "-eps", "1", "-seed", "7", "distance", "0", "3"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"private distance 0 -> 3", "error bound", "privacy receipt"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	out, err := capture(t, []string{"-graph", path, "-eps", "2", "-seed", "7", "-json", "distance", "0", "3"})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Bound  float64 `json:"bound"`
		Result struct {
			Mechanism string          `json:"mechanism"`
			Receipt   dpgraph.Receipt `json:"receipt"`
			Value     float64         `json:"value"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if got.Result.Mechanism != "distance" || got.Result.Receipt.Epsilon != 2 || got.Bound <= 0 {
		t.Errorf("json = %+v", got)
	}
}

func TestRunJSONPath(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	out, err := capture(t, []string{"-graph", path, "-seed", "7", "-json", "path", "0", "3"})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Result struct {
			Vertices []int `json:"vertices"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(got.Result.Vertices) != 4 || got.Result.Vertices[0] != 0 || got.Result.Vertices[3] != 3 {
		t.Errorf("vertices = %v", got.Result.Vertices)
	}
}

func TestRunSubcommandsFromRegistry(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	for _, args := range [][]string{
		{"-graph", path, "-seed", "3", "treedist", "0", "3"},
		{"-graph", path, "-seed", "3", "treesssp", "0"},
		{"-graph", path, "-seed", "3", "hierarchy", "0", "3"},
		{"-graph", path, "-seed", "3", "sssp", "0"},
		{"-graph", path, "-seed", "3", "mst"},
		{"-graph", path, "-seed", "3", "mstcost"},
		{"-graph", path, "-seed", "3", "release"},
		{"-graph", path, "-seed", "3", "-maxweight", "4", "apsd", "0", "3"},
		{"-graph", path, "-seed", "3", "apsd", "0", "3"},
	} {
		if _, err := capture(t, args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

func TestRunQueryText(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	out, err := captureWithStdin(t, "0 3\n1 2\n# comment\n2 2\n",
		[]string{"-graph", path, "-eps", "4", "-seed", "7", "query", "release"})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 6 {
		t.Fatalf("want 3 answers + 3 summary lines, got:\n%s", out)
	}
	for i, prefix := range []string{"0 3 ", "1 2 ", "2 2 "} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
	if !strings.HasPrefix(lines[2], "2 2 0.0000") {
		t.Errorf("s == t answer not zero: %q", lines[2])
	}
	for _, want := range []string{`3 queries answered from one "release" release`, "error bound", "privacy receipt"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunQueryJSON(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	for _, stdin := range []string{`[[0,3],[1,2]]`, `[{"s":0,"t":3},{"s":1,"t":2}]`} {
		out, err := captureWithStdin(t, stdin,
			[]string{"-graph", path, "-seed", "7", "-json", "query", "treedist"})
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Mechanism string          `json:"mechanism"`
			Bound     float64         `json:"bound"`
			Receipt   dpgraph.Receipt `json:"receipt"`
			Results   []struct {
				S     int     `json:"s"`
				T     int     `json:"t"`
				Value float64 `json:"value"`
			} `json:"results"`
		}
		if err := json.Unmarshal([]byte(out), &got); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, out)
		}
		if got.Mechanism != "treedist" || got.Bound <= 0 || len(got.Results) != 2 {
			t.Errorf("envelope = %+v", got)
		}
		if got.Results[0].S != 0 || got.Results[0].T != 3 {
			t.Errorf("first result = %+v", got.Results[0])
		}
	}
}

func TestRunQuerySubcommands(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	for _, args := range [][]string{
		{"-graph", path, "-seed", "3", "query", "release"},
		{"-graph", path, "-seed", "3", "query", "treesssp", "0"},
		{"-graph", path, "-seed", "3", "query", "treedist"},
		{"-graph", path, "-seed", "3", "query", "hierarchy"},
		{"-graph", path, "-seed", "3", "query", "apsd"},
		{"-graph", path, "-seed", "3", "-maxweight", "4", "query", "bounded"},
	} {
		if _, err := captureWithStdin(t, "0 3\n", args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

func TestRunQueryWorkers(t *testing.T) {
	// A seeded session answers a batch identically with 1, 3, or
	// GOMAXPROCS workers: queries are post-processing of one release, so
	// sharding must not change values or order.
	path := writeFile(t, "g.txt", pathGraph)
	var stdin strings.Builder
	for s := 0; s < 4; s++ {
		for u := 0; u < 4; u++ {
			fmt.Fprintf(&stdin, "%d %d\n", s, u)
		}
	}
	var want string
	for _, workers := range []string{"1", "3", "0"} {
		out, err := captureWithStdin(t, stdin.String(),
			[]string{"-graph", path, "-seed", "7", "-workers", workers, "query", "release"})
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		if want == "" {
			want = out
		} else if out != want {
			t.Errorf("workers=%s output differs:\n%s\nwant:\n%s", workers, out, want)
		}
	}
	// Errors (out-of-range pairs) must surface from worker shards too.
	if _, err := captureWithStdin(t, "0 1\n0 9\n0 1\n0 2\n",
		[]string{"-graph", path, "-seed", "7", "-workers", "4", "query", "release"}); err == nil {
		t.Error("out-of-range pair accepted on the sharded path")
	}
	// -workers is query-mode only, and negative counts are rejected.
	if _, err := capture(t, []string{"-graph", path, "-workers", "2", "mst"}); err == nil {
		t.Error("-workers accepted outside query mode")
	}
	if _, err := captureWithStdin(t, "0 1\n",
		[]string{"-graph", path, "-workers", "-2", "query", "release"}); err == nil {
		t.Error("negative -workers accepted")
	}
}

func TestRunQueryIndex(t *testing.T) {
	// A seeded session answers a batch identically however it is served:
	// unindexed, contraction hierarchy, landmark A*, or auto — with or
	// without worker sharding on top. (The release draws the same noise
	// either way; indexing is post-processing.)
	path := writeFile(t, "g.txt", pathGraph)
	var stdin strings.Builder
	for s := 0; s < 4; s++ {
		for u := 0; u < 4; u++ {
			fmt.Fprintf(&stdin, "%d %d\n", s, u)
		}
	}
	var want string
	for _, index := range []string{"off", "auto", "ch", "alt"} {
		out, err := captureWithStdin(t, stdin.String(),
			[]string{"-graph", path, "-seed", "7", "-index", index, "-workers", "2", "query", "release"})
		if err != nil {
			t.Fatalf("index=%s: %v", index, err)
		}
		if want == "" {
			want = out
		} else if out != want {
			t.Errorf("index=%s output differs:\n%s\nwant:\n%s", index, out, want)
		}
	}
	// -index is query-mode only, and unknown modes are rejected.
	if _, err := capture(t, []string{"-graph", path, "-index", "ch", "mst"}); err == nil {
		t.Error("-index accepted outside query mode")
	}
	if _, err := captureWithStdin(t, "0 1\n",
		[]string{"-graph", path, "-index", "bogus", "query", "release"}); err == nil {
		t.Error("unknown -index mode accepted")
	}
}

func TestRunQueryUnreachableJSON(t *testing.T) {
	// Two components: 0-1 and 2-3. A cross-component query must encode
	// as unreachable, not abort the whole envelope on +Inf.
	path := writeFile(t, "g.txt", "graph 4\nedge 0 1 1\nedge 2 3 1\n")
	out, err := captureWithStdin(t, "0 3\n0 1\n",
		[]string{"-graph", path, "-seed", "7", "-json", "query", "release"})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Results []struct {
			Value       *float64 `json:"value"`
			Unreachable bool     `json:"unreachable"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(got.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(got.Results))
	}
	if !got.Results[0].Unreachable || got.Results[0].Value != nil {
		t.Errorf("disconnected pair = %+v, want unreachable with null value", got.Results[0])
	}
	if got.Results[1].Unreachable || got.Results[1].Value == nil {
		t.Errorf("connected pair = %+v, want a value", got.Results[1])
	}
}

// TestReadPairsTrailingContent is the regression table for the
// object-form decoder bug: json.Decoder stops after the first value, so
// `[{"s":1,"t":2}] trailing garbage` was silently accepted while the
// tuple form rejected it. Both forms must now reject trailing content.
func TestReadPairsTrailingContent(t *testing.T) {
	cases := []struct {
		stdin string
		ok    bool
	}{
		{`[[1,2]]`, true},
		{`[{"s":1,"t":2}]`, true},
		{"  [[1,2]]  \n", true},
		{"\n[{\"s\":1,\"t\":2}]\t\n ", true},
		// Trailing content: tuple form (already rejected) and object
		// form (the bug) must agree.
		{`[[1,2]] garbage`, false},
		{`[{"s":1,"t":2}] garbage`, false},
		{`[[1,2]][[3,4]]`, false},
		{`[{"s":1,"t":2}][{"s":3,"t":4}]`, false},
		{`[{"s":1,"t":2}] [[3,4]]`, false},
		{`[{"s":1,"t":2}],`, false},
	}
	for _, c := range cases {
		pairs, err := readPairs(strings.NewReader(c.stdin))
		if c.ok && (err != nil || len(pairs) != 1 || pairs[0].S != 1 || pairs[0].T != 2) {
			t.Errorf("readPairs(%q) = (%v, %v), want one pair (1,2)", c.stdin, pairs, err)
		}
		if !c.ok && err == nil {
			t.Errorf("readPairs(%q) accepted: %v", c.stdin, pairs)
		}
	}
}

// TestRunQueryLongCommentLine: text pairs input must accept lines past
// 64 KiB, as graph.ReadText does.
func TestRunQueryLongCommentLine(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	stdin := "# " + strings.Repeat("x", 128*1024) + "\n0 3\n"
	out, err := captureWithStdin(t, stdin, []string{"-graph", path, "-seed", "7", "query", "release"})
	if err != nil {
		t.Fatalf("long comment line rejected: %v", err)
	}
	if !strings.Contains(out, `1 queries answered`) {
		t.Errorf("output:\n%s", out)
	}
}

// TestRunJSONUnreachable: non-query -json output must render results
// carrying ±Inf (disconnected pairs) with the null+unreachable
// convention instead of failing with "unsupported value".
func TestRunJSONUnreachable(t *testing.T) {
	split := writeFile(t, "g.txt", "graph 4\nedge 0 1 1\nedge 2 3 1\n")

	// apsd on a disconnected pair: QueryResult carries +Inf.
	out, err := capture(t, []string{"-graph", split, "-seed", "7", "-json", "apsd", "0", "3"})
	if err != nil {
		t.Fatalf("apsd -json on disconnected pair: %v", err)
	}
	var pairGot struct {
		Result struct {
			Value       *float64 `json:"value"`
			Unreachable bool     `json:"unreachable"`
			Receipt     dpgraph.Receipt
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &pairGot); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if pairGot.Result.Value != nil || !pairGot.Result.Unreachable {
		t.Errorf("apsd result = %s", out)
	}

	// sssp: the released vector has +Inf entries for vertices 2 and 3.
	out, err = capture(t, []string{"-graph", split, "-seed", "7", "-json", "sssp", "0"})
	if err != nil {
		t.Fatalf("sssp -json on disconnected graph: %v", err)
	}
	var ssspGot struct {
		Result struct {
			Dist        []*float64 `json:"dist"`
			Unreachable []int      `json:"unreachable"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &ssspGot); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(ssspGot.Result.Dist) != 4 || ssspGot.Result.Dist[0] == nil || ssspGot.Result.Dist[3] != nil {
		t.Errorf("sssp dist = %s", out)
	}
	if len(ssspGot.Result.Unreachable) != 2 || ssspGot.Result.Unreachable[0] != 2 || ssspGot.Result.Unreachable[1] != 3 {
		t.Errorf("sssp unreachable = %v", ssspGot.Result.Unreachable)
	}

	// Connected graphs keep the plain shape (no unreachable key).
	path := writeFile(t, "conn.txt", pathGraph)
	out, err = capture(t, []string{"-graph", path, "-seed", "7", "-json", "apsd", "0", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "unreachable") {
		t.Errorf("connected result grew an unreachable marker:\n%s", out)
	}
}

func TestRunQueryEmptyPairsChargeNothing(t *testing.T) {
	// An empty workload — empty text or an empty JSON array — must be
	// refused before the release is materialized (no budget spent).
	path := writeFile(t, "g.txt", pathGraph)
	for _, stdin := range []string{"", "   \n", "[]"} {
		if _, err := captureWithStdin(t, stdin, []string{"-graph", path, "query", "release"}); err == nil {
			t.Errorf("stdin %q accepted; release would have been charged for zero queries", stdin)
		}
	}
}

func TestRunQueryErrors(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	cases := []struct {
		stdin string
		args  []string
	}{
		{"0 3\n", []string{"-graph", path, "query"}},                          // no mechanism
		{"0 3\n", []string{"-graph", path, "query", "mst"}},                   // no oracle form
		{"0 3\n", []string{"-graph", path, "query", "nope"}},                  // unknown mechanism
		{"", []string{"-graph", path, "query", "release"}},                    // no pairs
		{"0\n", []string{"-graph", path, "query", "release"}},                 // malformed line
		{"0 9\n", []string{"-graph", path, "query", "release"}},               // out of range
		{`[[0]]`, []string{"-graph", path, "query", "release"}},               // bad tuple
		{`[{"src":0,"dst":3}]`, []string{"-graph", path, "query", "release"}}, // wrong JSON keys
		{"0 3\n", []string{"-graph", path, "query", "bounded"}},               // missing -maxweight
		{"0 3\n", []string{"-graph", path, "query", "treesssp", "x"}},         // bad root
		// ReleaseSpec treats zero as "default", but explicit invalid
		// flags must still fail instead of silently running at eps=1.
		{"0 3\n", []string{"-graph", path, "-eps", "0", "query", "release"}},
		{"0 3\n", []string{"-graph", path, "-eps", "-1", "query", "release"}},
		{"0 3\n", []string{"-graph", path, "-gamma", "0", "query", "release"}},
		{"0 3\n", []string{"-graph", path, "-scale", "0", "query", "release"}},
	}
	for _, c := range cases {
		if _, err := captureWithStdin(t, c.stdin, c.args); err == nil {
			t.Errorf("%v with stdin %q accepted", c.args, c.stdin)
		}
	}
}

func TestRunErrors(t *testing.T) {
	path := writeFile(t, "g.txt", pathGraph)
	cases := [][]string{
		{"-graph", path, "nope"},                                // unknown subcommand
		{"-graph", path, "distance", "0"},                       // missing arg
		{"-graph", path, "distance", "0", "x"},                  // bad arg
		{"-graph", path, "bounded", "0", "3"},                   // missing -maxweight
		{"distance", "0", "3"},                                  // missing -graph
		{"-graph", filepath.Join(t.TempDir(), "no.txt"), "mst"}, // missing file
	}
	for _, args := range cases {
		if _, err := capture(t, args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestLoadGraphFormats(t *testing.T) {
	g, w, err := dpgraph.ReadGraphFile(writeFile(t, "g.txt", "graph 3\nedge 0 1 2.5\nedge 1 2 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || w[0] != 2.5 {
		t.Fatalf("N=%d M=%d w=%v", g.N(), g.M(), w)
	}
	g, w, err = dpgraph.ReadGraphFile(writeFile(t, "g.json", `{"vertices":2,"edges":[[0,1]],"weights":[3]}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || w[0] != 3 {
		t.Fatal("JSON load failed")
	}
	if _, _, err := dpgraph.ReadGraphFile(writeFile(t, "bad.txt", "not a graph\n")); err == nil {
		t.Error("malformed file accepted")
	}
	if _, _, err := dpgraph.ReadGraphFile(writeFile(t, "bad.json", `{"vertices":2,"edges":[[0,9]]}`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}
