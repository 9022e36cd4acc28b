package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/dpgraph"
)

// TestScanQueryPairParity drives the RawQuery scanner against
// url.ParseQuery: whenever the scanner accepts a query string, its
// (s, t) must equal what the url.Values path would have produced, and
// it must reject (not mis-parse) every spelling whose decoding it does
// not implement.
func TestScanQueryPairParity(t *testing.T) {
	cases := []string{
		"s=1&t=2", "t=2&s=1", "s=0&t=0", "s=-3&t=+7", "s=007&t=8",
		"s=1&t=2&x=9", "x=9&s=1&t=2", "s=1&s=5&t=2", "t=2&t=9&s=1",
		"s=1", "t=2", "", "s=&t=2", "s=a&t=2", "s=1&t=2.5",
		"s=%31&t=2", "s=+1&t=2", "s=1;t=2", "s=1&t=2&", "&s=1&t=2",
		"s=1&&t=2", "s==1&t=2", "s=1&t", "s=9999999999999999999&t=1",
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		cases = append(cases, "s="+strconv.Itoa(rng.Intn(2000)-1000)+"&t="+strconv.Itoa(rng.Intn(2000)-1000))
	}
	for _, raw := range cases {
		gs, gt, ok := scanQueryPair(raw)
		vals, _ := url.ParseQuery(raw)
		ws, err1 := strconv.Atoi(vals.Get("s"))
		wt, err2 := strconv.Atoi(vals.Get("t"))
		slowOK := err1 == nil && err2 == nil
		if ok {
			if !slowOK {
				t.Errorf("scanQueryPair(%q) accepted what url.ParseQuery rejects", raw)
				continue
			}
			if gs != ws || gt != wt {
				t.Errorf("scanQueryPair(%q) = (%d,%d), url.Values path = (%d,%d)", raw, gs, gt, ws, wt)
			}
		}
		// !ok is always fine: the handler falls back to the url.Values
		// path, so rejections cannot change behavior.
	}
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

// TestParsePairsFastParity drives the fast batch parser against
// ParsePairs over every input family: on accept the decoded pairs must
// match exactly, and the canonical hot shapes must actually take the
// fast path (a silent permanent fallback would be a quiet perf bug).
func TestParsePairsFastParity(t *testing.T) {
	cases := []struct {
		in       string
		wantFast bool
	}{
		{"0 1\n2 3\n", true},
		{"0 1", true},
		{"  7   9  \n\n# comment\n4 5\r\n", true},
		{"-1 +2\n007 8\n", true},
		{"[[0,1],[2,3]]", true},
		{" [ [ 0 , 1 ] , [ 2 , 3 ] ] ", true},
		{"[]", true},
		{"[ ]", true},
		{`[{"s":0,"t":1},{"t":3,"s":2}]`, true},
		{`[{"s":0}]`, true}, // missing key defaults to 0, same as encoding/json
		{`[{"s":1,"s":2,"t":3}]`, true},
		{"", false},
		{"   \n  ", false},
		{"0 1 2\n", false},
		{"0\n", false},
		{"a b\n", false},
		{"0 1 # trailing\n", false},
		{"[[0,1],[2]]", false},
		{"[[0,1],]", false},
		{"[[0,1]] extra", false},
		{`[{"s":0,"x":1}]`, false},
		{`[{"s":0,"t":1},]`, false},
		{`[{"t":0"s":0}]`, false}, // members without the comma between them
		{`[{"s":0 "t":1}]`, false},
		{"[[0,01]]", false},
		{"[[0,1.5]]", false},
		{"[[0,1e2]]", false},
		{`[{"s":0,"t":1}] [`, false},
		{"9999999999999999999 1\n", false},
	}
	for _, tc := range cases {
		fastPairs, ok := parsePairsFast(nil, []byte(tc.in))
		slowPairs, slowErr := ParsePairs([]byte(tc.in))
		if ok != tc.wantFast {
			t.Errorf("parsePairsFast(%q) fast=%v, want %v", tc.in, ok, tc.wantFast)
		}
		if !ok {
			continue
		}
		if slowErr != nil {
			t.Errorf("parsePairsFast(%q) accepted what ParsePairs rejects: %v", tc.in, slowErr)
			continue
		}
		if len(fastPairs) != len(slowPairs) {
			t.Errorf("parsePairsFast(%q): %d pairs, ParsePairs: %d", tc.in, len(fastPairs), len(slowPairs))
			continue
		}
		for i := range fastPairs {
			if fastPairs[i] != slowPairs[i] {
				t.Errorf("parsePairsFast(%q)[%d] = %+v, want %+v", tc.in, i, fastPairs[i], slowPairs[i])
			}
		}
	}
}

// TestParsePairsFastQuick fuzzes random pair batches through all three
// wire forms: the fast parser must accept each canonical rendering and
// agree with ParsePairs exactly.
func TestParsePairsFastQuick(t *testing.T) {
	f := func(raw []int16) bool {
		pairs := make([]dpgraph.VertexPair, len(raw)/2)
		for i := range pairs {
			pairs[i] = dpgraph.VertexPair{S: int(raw[2*i]), T: int(raw[2*i+1])}
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
		for _, in := range [][]byte{text, tuples, objs} {
			got, ok := parsePairsFast(nil, in)
			if !ok {
				return false
			}
			want, err := ParsePairs(in)
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParsePointBodyFastParity checks the point-body fast path against
// the strict decoder.
func TestParsePointBodyFastParity(t *testing.T) {
	cases := []struct {
		in       string
		wantFast bool
	}{
		{`{"s":3,"t":17}`, true},
		{`{"t":17,"s":3}`, true},
		{` { "s" : -1 , "t" : 0 } `, true},
		{`{"s":1,"s":2,"t":3}`, true}, // duplicate: last wins, like encoding/json
		{`{"s":3}`, false},
		{`{}`, false},
		{`{"s":3,"t":17,"x":1}`, false},
		{`{"s":3,"t":17}{"s":1,"t":2}`, false},
		{`{"s":"3","t":17}`, false},
		{`{"s":3.5,"t":17}`, false},
		{`{"s":03,"t":17}`, false},
		{`[3,17]`, false},
		{``, false},
	}
	for _, tc := range cases {
		fs, ft, ok := parsePointBodyFast([]byte(tc.in))
		if ok != tc.wantFast {
			t.Errorf("parsePointBodyFast(%q) ok=%v, want %v", tc.in, ok, tc.wantFast)
		}
		if !ok {
			continue
		}
		ss, st, err := pairFromBytes([]byte(tc.in))
		if err != nil {
			t.Errorf("parsePointBodyFast(%q) accepted what the strict decoder rejects: %v", tc.in, err)
			continue
		}
		if fs != ss || ft != st {
			t.Errorf("parsePointBodyFast(%q) = (%d,%d), strict = (%d,%d)", tc.in, fs, ft, ss, st)
		}
	}
}

// TestReadBodyLimit covers the manual body reader: under, at, and over
// the limit, and the 413 mapping of its error.
func TestReadBodyLimit(t *testing.T) {
	data, err := readBodyLimit(nil, strings.NewReader("hello"), 5)
	if err != nil || string(data) != "hello" {
		t.Fatalf("at-limit read = (%q, %v)", data, err)
	}
	if _, err = readBodyLimit(nil, strings.NewReader("hello!"), 5); err == nil {
		t.Fatal("over-limit read accepted")
	}
	rec := httptest.NewRecorder()
	writeBodyError(rec, err)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit error mapped to %d, want 413", rec.Code)
	}
}
