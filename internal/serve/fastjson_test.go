package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/dpgraph"
)

// Vertices at the edges of the int range, and one past each edge.
var (
	maxInt   = strconv.Itoa(math.MaxInt)
	minInt   = strconv.Itoa(math.MinInt)
	overMax  = strconv.FormatUint(uint64(math.MaxInt)+1, 10)
	underMin = "-" + strconv.FormatUint(uint64(math.MaxInt)+2, 10)
)

// grammarCase is one row of an accept/reject table for a parser: ok
// inputs must decode to want, the others must fail.
type grammarCase struct {
	in   string
	ok   bool
	want []dpgraph.VertexPair
}

func accept(in string, want ...dpgraph.VertexPair) grammarCase {
	return grammarCase{in: in, ok: true, want: want}
}

func reject(in string) grammarCase { return grammarCase{in: in} }

func pair(s, t int) dpgraph.VertexPair { return dpgraph.VertexPair{S: s, T: t} }

// checkGrammar runs one parser over a table; every rejection must carry
// one of the parser's error prefixes.
func checkGrammar(t *testing.T, name string, cases []grammarCase, parse func(string) ([]dpgraph.VertexPair, error), prefixes ...string) {
	t.Helper()
	for _, tc := range cases {
		got, err := parse(tc.in)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s(%q) rejected: %v", name, tc.in, err)
		case tc.ok && !slices.Equal(got, tc.want):
			t.Errorf("%s(%q) = %v, want %v", name, tc.in, got, tc.want)
		case !tc.ok && err == nil:
			t.Errorf("%s(%q) accepted: %v", name, tc.in, got)
		case !tc.ok && !hasPrefix(err, prefixes):
			t.Errorf("%s(%q) error %q has none of the prefixes %q", name, tc.in, err, prefixes)
		}
	}
}

func hasPrefix(err error, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(err.Error(), p) {
			return true
		}
	}
	return false
}

// TestScanQueryPairParity is the query-string grammar's accept/reject
// table (the test kept its name from the scanner it used to check).
func TestScanQueryPairParity(t *testing.T) {
	cases := []grammarCase{
		accept("s=1&t=2", pair(1, 2)),
		accept("t=2&s=1", pair(1, 2)),
		accept("s=0&t=0", pair(0, 0)),
		accept("s=007&t=8", pair(7, 8)),
		accept("s=-0&t=1", pair(0, 1)),
		accept("s=1&t=2&x=9", pair(1, 2)),
		accept("x=9&s=1&t=2", pair(1, 2)),
		accept("x=a%20b+c&s=1&t=2", pair(1, 2)), // other segments are never decoded
		accept("s=1&s=5&t=2", pair(1, 2)),       // first s wins
		accept("t=2&t=9&s=1", pair(1, 2)),
		accept("s=1&t=2&", pair(1, 2)),
		accept("&s=1&t=2", pair(1, 2)),
		accept("s=1&&t=2", pair(1, 2)),
		accept("s="+maxInt+"&t="+minInt, pair(math.MaxInt, math.MinInt)),
		reject("s=-3&t=+7"), // '+' is not in -?[0-9]+ (and url.Values reads it as a space)
		reject("s=+1&t=2"),
		reject("s=1"),
		reject("t=2"),
		reject(""),
		reject("s=&t=2"),
		reject("s=a&t=2"),
		reject("s=1&t=2.5"),
		reject("s=%31&t=2"),     // escapes are not decoded
		reject("%73=1&t=2"),     // an escaped key could spell s
		reject("%73=5&s=1&t=2"), // url.Values reads s=5 here; never answer a different pair
		reject("s=1;t=2"),
		reject("s==1&t=2"),
		reject("s=1&t"),     // a bare t is a t with the empty value
		reject("s&s=1&t=2"), // likewise a bare s, and it comes first
		reject("s=9999999999999999999&t=1"),
		reject("s=" + overMax + "&t=1"),
		reject("s=1&t=" + underMin),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		s, tv := rng.Intn(2000)-1000, rng.Intn(2000)-1000
		cases = append(cases, accept("s="+strconv.Itoa(s)+"&t="+strconv.Itoa(tv), pair(s, tv)))
	}
	checkGrammar(t, "parseQueryPair", cases, func(in string) ([]dpgraph.VertexPair, error) {
		p, err := parseQueryPair(in)
		return []dpgraph.VertexPair{p}, err
	}, "want integer query parameters s and t")
}

// TestAppendPairAnswerParity pins the fast encoder to PairAnswer's
// MarshalJSON output for finite, negative, tiny, huge, and infinite
// values.
func TestAppendPairAnswerParity(t *testing.T) {
	vals := []float64{0, 1, -1, 41.2151, 1e-7, -2.5e-7, 1e20, 1e21, 123456789.125,
		math.Inf(1), math.Inf(-1), 0.1, 2.0 / 3.0, 5e-324, math.MaxFloat64}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, v := range vals {
		for _, pair := range [][2]int{{0, 1}, {-5, 123456}, {7, 7}} {
			want, err := json.Marshal(PairAnswer{S: pair[0], T: pair[1], Value: v})
			if err != nil {
				t.Fatalf("marshal PairAnswer(%v): %v", v, err)
			}
			got := appendPairAnswer(nil, pair[0], pair[1], v)
			if string(got) != string(want) {
				t.Errorf("appendPairAnswer(%d,%d,%g) = %s, want %s", pair[0], pair[1], v, got, want)
			}
		}
	}
}

// TestAppendJSONFloatQuick is the randomized form of the same property:
// for any finite float64 the fast append must equal encoding/json.
func TestAppendJSONFloatQuick(t *testing.T) {
	f := func(v float64) bool {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return true
		}
		want, err := json.Marshal(v)
		if err != nil {
			return false
		}
		return string(appendJSONFloat(nil, v)) == string(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestParsePairsFastParity is the batch grammar's accept/reject table
// over all three forms (the test kept its name from the fast parser it
// used to check).
func TestParsePairsFastParity(t *testing.T) {
	cases := []grammarCase{
		accept("0 1\n2 3\n", pair(0, 1), pair(2, 3)),
		accept("0 1", pair(0, 1)),
		accept("  7   9  \n\n# comment\n4 5\r\n", pair(7, 9), pair(4, 5)),
		accept("-1 +2\n007 8\n", pair(-1, 2), pair(7, 8)),
		accept("0\v1\f\n", pair(0, 1)),
		accept("# nothing but a comment\n"),
		accept(maxInt+" "+minInt, pair(math.MaxInt, math.MinInt)),
		accept("[[0,1],[2,3]]", pair(0, 1), pair(2, 3)),
		accept(" [ [ 0 , 1 ] , [ 2 , 3 ] ] ", pair(0, 1), pair(2, 3)),
		accept("[[-0,1]]", pair(0, 1)),
		accept("[["+maxInt+","+minInt+"]]", pair(math.MaxInt, math.MinInt)),
		accept("[]"),
		accept("[ ]"),
		accept(`[{"s":0,"t":1},{"t":3,"s":2}]`, pair(0, 1), pair(2, 3)),
		accept(`[{"s":1,"s":2,"t":3}]`, pair(2, 3)),
		accept(`[{"s":`+maxInt+`,"t":`+minInt+`}]`, pair(math.MaxInt, math.MinInt)),
		// A missing or null endpoint must not default to vertex 0: the
		// point body rejects the same omission.
		reject(`[{"s":0}]`),
		reject(`[{"s":1}]`),
		reject(`[{"s":null,"t":1}]`),
		reject(`[[null,1]]`),
		reject(`[{}]`),
		reject(`[{"S":1,"T":2}]`), // keys are exact: no case folding
		reject(`[{"\u0073":1,"t":2}]`),
		reject(""),
		reject("   \n  "),
		reject("0 1 2\n"),
		reject("0\n"),
		reject("a b\n"),
		reject("0 1 # trailing\n"),
		reject("1\u00a02"), // fields split on ASCII whitespace only
		reject("9999999999999999999 1\n"),
		reject(overMax + " 1"),
		reject("1 " + underMin),
		reject("[[0,1],[2]]"),
		reject("[[0,1,2]]"),
		reject("[[]]"),
		reject("[[0,1],]"),
		reject("[[0,1]] extra"),
		reject("[[0,1]]\v"),
		reject("\v[[0,1]]"),
		reject(`[{"s":0,"x":1}]`),
		reject(`[{"s":0,"t":1},]`),
		reject(`[{"s":0,"t":1,}]`),
		reject(`[{"t":0"s":0}]`), // members without the comma between them
		reject(`[{"s":0 "t":1}]`),
		reject(`[{"s":0,"t":1},[2,3]]`), // the first element picks the shape
		reject("[[0,01]]"),
		reject("[[0,1.5]]"),
		reject("[[0,1e2]]"),
		reject("[[+1,2]]"),
		reject("[[" + overMax + ",1]]"),
		reject("[[1," + underMin + "]]"),
		reject(`[{"s":0,"t":1}] [`),
		reject("["),
	}
	checkGrammar(t, "parsePairs", cases, func(in string) ([]dpgraph.VertexPair, error) {
		return parsePairs(nil, []byte(in))
	}, "bad JSON pairs: ", "JSON pair ", "line ", ErrNoPairs.Error())
}

// TestParsePairsFastQuick renders random batches over the whole int
// range in all three batch forms; each must parse back to the same
// pairs, appended after what dst already holds.
func TestParsePairsFastQuick(t *testing.T) {
	f := func(raw []int) bool {
		pairs := make([]dpgraph.VertexPair, len(raw)/2)
		for i := range pairs {
			pairs[i] = dpgraph.VertexPair{S: raw[2*i], T: raw[2*i+1]}
		}
		if len(pairs) == 0 {
			return true
		}
		text := make([]byte, 0, 16*len(pairs))
		for _, p := range pairs {
			text = strconv.AppendInt(text, int64(p.S), 10)
			text = append(text, ' ')
			text = strconv.AppendInt(text, int64(p.T), 10)
			text = append(text, '\n')
		}
		tuples, _ := json.Marshal(func() [][]int {
			out := make([][]int, len(pairs))
			for i, p := range pairs {
				out[i] = []int{p.S, p.T}
			}
			return out
		}())
		objs, _ := json.Marshal(pairs)
		head := []dpgraph.VertexPair{{S: -1, T: -2}}
		for _, in := range [][]byte{text, tuples, objs} {
			got, err := parsePairs(head[:1:1], in)
			if err != nil || !slices.Equal(got, append(head[:1:1], pairs...)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParsePointBodyFastParity is the point-body grammar's
// accept/reject table (the test kept its name from the fast parser it
// used to check).
func TestParsePointBodyFastParity(t *testing.T) {
	cases := []grammarCase{
		accept(`{"s":3,"t":17}`, pair(3, 17)),
		accept(`{"t":17,"s":3}`, pair(3, 17)),
		accept(` { "s" : -1 , "t" : 0 } `, pair(-1, 0)),
		accept(`{"s":1,"s":2,"t":3}`, pair(2, 3)), // duplicate: last wins
		accept(`{"s":`+maxInt+`,"t":`+minInt+`}`, pair(math.MaxInt, math.MinInt)),
		reject(`{"s":3}`),
		reject(`{"t":3}`),
		reject(`{}`),
		reject(`{"s":null,"t":1}`),
		reject(`{"S":1,"T":2}`),
		reject(`{"\u0073":1,"t":2}`),
		reject(`{"s":3,"t":17,"x":1}`),
		reject(`{"s":3,"t":17,}`),
		reject(`{"s":3,"t":17}{"s":1,"t":2}`),
		reject(`{"s":"3","t":17}`),
		reject(`{"s":3.5,"t":17}`),
		reject(`{"s":03,"t":17}`),
		reject(`{"s":` + overMax + `,"t":1}`),
		reject(`{"s":1,"t":` + underMin + `}`),
		reject(`[3,17]`),
		reject(``),
	}
	checkGrammar(t, "parsePointBody", cases, func(in string) ([]dpgraph.VertexPair, error) {
		p, err := parsePointBody([]byte(in))
		return []dpgraph.VertexPair{p}, err
	}, "bad pair body: ")
}

// TestReadBodyLimit covers the manual body reader: under, at, and over
// the limit, and the 413 mapping of its error.
func TestReadBodyLimit(t *testing.T) {
	data, err := ReadBodyLimit(nil, strings.NewReader("hello"), 5)
	if err != nil || string(data) != "hello" {
		t.Fatalf("at-limit read = (%q, %v)", data, err)
	}
	if _, err = ReadBodyLimit(nil, strings.NewReader("hello!"), 5); err == nil {
		t.Fatal("over-limit read accepted")
	}
	rec := httptest.NewRecorder()
	WriteBodyError(rec, err)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit error mapped to %d, want 413", rec.Code)
	}
}
