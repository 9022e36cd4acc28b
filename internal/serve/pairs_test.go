package serve

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/dpgraph"
)

func TestServeParsePairs(t *testing.T) {
	want := []dpgraph.VertexPair{{S: 1, T: 2}, {S: 3, T: 4}}
	accept := []string{
		"1 2\n3 4\n",
		"  1 2 \n# comment\n\n3 4\n",
		`[[1,2],[3,4]]`,
		`[{"s":1,"t":2},{"s":3,"t":4}]`,
		"  [[1,2],[3,4]]  \n",
		`[{"s":1,"t":2},{"s":3,"t":4}]` + "\n\t ",
	}
	for _, in := range accept {
		got, err := ParsePairs([]byte(in))
		if err != nil {
			t.Errorf("ParsePairs(%q): %v", in, err)
			continue
		}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("ParsePairs(%q) = %v, want %v", in, got, want)
		}
	}

	reject := []string{
		// Trailing content after either JSON form: the object form used
		// to stop at the first value and silently accept the rest.
		`[[1,2]] garbage`,
		`[[1,2]][[3,4]]`,
		`[{"s":1,"t":2}] garbage`,
		`[{"s":1,"t":2}][{"s":3,"t":4}]`,
		`[{"s":1,"t":2}] [[3,4]]`,
		`[{"s":1,"t":2}],`,
		// Malformed content.
		`[{"src":1,"dst":2}]`,
		`[[1]]`,
		`[[1,2,3]]`,
		`[`,
		// A missing or null endpoint must not default to vertex 0.
		`[{"s":1}]`,
		`[{"s":null,"t":1}]`,
		`[[null,1]]`,
		"1\n",
		"1 2 3\n",
		"a b\n",
	}
	for _, in := range reject {
		if got, err := ParsePairs([]byte(in)); err == nil {
			t.Errorf("ParsePairs(%q) accepted: %v", in, got)
		}
	}

	if _, err := ParsePairs([]byte("  \n \t")); !errors.Is(err, ErrNoPairs) {
		t.Errorf("blank input: err = %v, want ErrNoPairs", err)
	}
	if got, err := ParsePairs([]byte("[]")); err != nil || len(got) != 0 {
		t.Errorf("empty array = (%v, %v), want an empty slice", got, err)
	}
}

// TestServeParsePairsLongLine checks that a text line is bounded only
// by the input itself: a 200 KiB comment line does not abort the batch.
func TestServeParsePairsLongLine(t *testing.T) {
	in := "# " + strings.Repeat("x", 200*1024) + "\n5 6\n"
	got, err := ParsePairs([]byte(in))
	if err != nil {
		t.Fatalf("long comment line rejected: %v", err)
	}
	if len(got) != 1 || got[0] != (dpgraph.VertexPair{S: 5, T: 6}) {
		t.Errorf("pairs = %v", got)
	}
}

func TestServePairAnswerJSON(t *testing.T) {
	data, err := json.Marshal(PairAnswer{S: 1, T: 2, Value: 3.5})
	if err != nil || string(data) != `{"s":1,"t":2,"value":3.5}` {
		t.Errorf("finite answer = %s (%v)", data, err)
	}
	for _, sign := range []int{1, -1} {
		data, err := json.Marshal(PairAnswer{S: 1, T: 2, Value: math.Inf(sign)})
		if err != nil {
			t.Fatalf("infinite answer failed to marshal: %v", err)
		}
		if string(data) != `{"s":1,"t":2,"value":null,"unreachable":true}` {
			t.Errorf("infinite answer = %s", data)
		}
	}
	if FiniteOrNil(math.Inf(1)) != nil || FiniteOrNil(math.Inf(-1)) != nil || FiniteOrNil(math.NaN()) != nil {
		t.Error("FiniteOrNil passed a non-finite value through")
	}
	if v := FiniteOrNil(4.25); v == nil || *v != 4.25 {
		t.Error("FiniteOrNil dropped a finite value")
	}
}
