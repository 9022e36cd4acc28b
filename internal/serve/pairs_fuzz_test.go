package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/dpgraph"
)

// FuzzParsePairs feeds arbitrary bytes to all three request parsers.
// None may panic, and whatever one accepts, an independent reference
// decoder must accept too with the identical pairs: encoding/json for
// the JSON forms, strings.Fields plus strconv.Atoi for text lines, and
// url.ParseQuery plus strconv.Atoi for the query string. The references
// are looser than the grammar (case-insensitive keys, Unicode spaces,
// percent escapes), so only the accepting direction is checked; the
// accept/reject tables in fastjson_test.go pin the rejections.
func FuzzParsePairs(f *testing.F) {
	seeds := []string{
		"0 1\n2 3\n",
		"  7   9  \n\n# comment\n4 5\r\n",
		"-1 +2\n007 8\n",
		"[[0,1],[2,3]]",
		" [ [ 0 , 1 ] , [ 2 , 3 ] ] ",
		"[]",
		`[{"s":0,"t":1},{"t":3,"s":2}]`,
		`[{"s":0}]`,
		`[{"s":1,"s":2,"t":3}]`,
		"",
		"0 1 2\n",
		"[[0,1],]",
		"[[0,1]] extra",
		`[{"s":0,"x":1}]`,
		"[[0,01]]",
		"[[0,1.5]]",
		"9999999999999999999 1\n",
		"[[9223372036854775807,-9223372036854775808]]",
		"[\x00]",
		"\xff\xfe 1 2",
		`{"s":3,"t":17}`,
		`{"s":null,"t":1}`,
		`[[null,1]]`,
		`[{"S":1,"T":2}]`,
		"1 2",
		"s=1&t=2",
		"%73=5&s=1&t=2",
		"s=9223372036854775807&t=-9223372036854775808",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := parsePairs(nil, data); err == nil {
			want, werr := refPairs(data)
			if werr != nil {
				t.Fatalf("parsePairs accepted %q but the reference rejects it: %v", truncate(data), werr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("parsePairs(%q) = %v, reference = %v", truncate(data), got, want)
			}
		}
		if got, err := parsePointBody(data); err == nil {
			want, werr := refObject(data)
			if werr != nil || got != want {
				t.Fatalf("parsePointBody(%q) = %v, reference = (%v, %v)", truncate(data), got, want, werr)
			}
		}
		if got, err := parseQueryPair(string(data)); err == nil {
			want, werr := refQuery(string(data))
			if werr != nil || got != want {
				t.Fatalf("parseQueryPair(%q) = %v, reference = (%v, %v)", truncate(data), got, want, werr)
			}
		}
	})
}

// refPairs decodes a batch body with encoding/json or, for text, with
// strings.Fields; unknown keys, trailing content, and null or missing
// endpoints are errors.
func refPairs(data []byte) ([]dpgraph.VertexPair, error) {
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '[' {
		return refText(data)
	}
	var elems []json.RawMessage
	if err := json.Unmarshal(data, &elems); err != nil {
		return nil, err
	}
	pairs := make([]dpgraph.VertexPair, len(elems))
	for i, el := range elems {
		var err error
		if elems[0][0] == '{' {
			pairs[i], err = refObject(el)
		} else {
			pairs[i], err = refTuple(el)
		}
		if err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
	}
	return pairs, nil
}

// refObject decodes one {"s":..,"t":..} object with both keys required.
func refObject(data []byte) (dpgraph.VertexPair, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var o struct {
		S *int `json:"s"`
		T *int `json:"t"`
	}
	if err := dec.Decode(&o); err != nil {
		return dpgraph.VertexPair{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return dpgraph.VertexPair{}, errors.New("trailing content")
	}
	if o.S == nil || o.T == nil {
		return dpgraph.VertexPair{}, errors.New(`want both "s" and "t"`)
	}
	return dpgraph.VertexPair{S: *o.S, T: *o.T}, nil
}

// refTuple decodes one [s,t] tuple of two non-null integers.
func refTuple(data []byte) (dpgraph.VertexPair, error) {
	var tu []*int
	if err := json.Unmarshal(data, &tu); err != nil {
		return dpgraph.VertexPair{}, err
	}
	if len(tu) != 2 || tu[0] == nil || tu[1] == nil {
		return dpgraph.VertexPair{}, errors.New("want two integers")
	}
	return dpgraph.VertexPair{S: *tu[0], T: *tu[1]}, nil
}

// refText decodes "s t" lines, skipping blank and '#' lines.
func refText(data []byte) ([]dpgraph.VertexPair, error) {
	var pairs []dpgraph.VertexPair
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: %d fields", i+1, len(fields))
		}
		s, err1 := strconv.Atoi(fields[0])
		t, err2 := strconv.Atoi(fields[1])
		if err := errors.Join(err1, err2); err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		pairs = append(pairs, dpgraph.VertexPair{S: s, T: t})
	}
	return pairs, nil
}

// refQuery reads s and t through url.Values.
func refQuery(raw string) (dpgraph.VertexPair, error) {
	vals, _ := url.ParseQuery(raw) // the error names a skipped segment; s and t may still be there
	s, err1 := strconv.Atoi(vals.Get("s"))
	t, err2 := strconv.Atoi(vals.Get("t"))
	return dpgraph.VertexPair{S: s, T: t}, errors.Join(err1, err2)
}

// truncate keeps failure messages readable for large or binary inputs.
func truncate(data []byte) string {
	const max = 200
	if len(data) > max {
		data = data[:max]
	}
	if !utf8.Valid(data) {
		return string([]rune(string(data))) // replace invalid bytes
	}
	return string(data)
}
