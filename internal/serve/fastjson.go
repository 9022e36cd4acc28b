package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/dpgraph"
)

// This file is the request path's allocation-free half: pooled
// per-request workspaces, append-based encoders for the distance
// response shapes, and the one parser for each request form. Each
// parser reads its input in one pass and allocates nothing on success
// (a batch grows only its dst slice); errors are built by cold helpers
// outside the //dpvet:hotpath functions and name the byte or line at
// fault.
//
// The accepted grammar:
//
//   - JSON integer (a vertex in any JSON body): -?(0|[1-9][0-9]*) within
//     [math.MinInt, math.MaxInt]; no null, string, fraction or exponent.
//     JSON whitespace (space, \t, \n, \r) may surround every token, and
//     nothing but whitespace may follow the top-level value.
//   - Point object (POST .../distance, and each element of an object
//     batch): {"s":S,"t":T}. The keys are exactly "s" and "t" (no case
//     folding, no escapes, no other key), in either order. Both are
//     required; a repeated key takes its last value.
//   - Batch body (POST .../distances, and `dpgraph query` stdin): a JSON
//     array of [S,T] tuples or of point objects, whose first element
//     picks the shape for the whole array ([] is an empty batch); any
//     other input is text lines.
//   - Text lines (the batch text form and POST .../distances:stream):
//     lines end at '\n'. A line holds two fields "S T" separated by
//     ASCII whitespace (space, \t, \v, \f, \r), each an optionally
//     signed decimal integer as strconv.Atoi reads it (leading zeros
//     and '+' allowed). Blank lines and lines whose first non-space
//     byte is '#' are skipped. A batch of nothing but ASCII whitespace
//     is ErrNoPairs.
//   - Query string (GET .../distance): '&'-separated segments, never
//     unescaped. The first segment whose key is literally "s" gives s
//     (a bare "s" gives the empty value), likewise "t", and both values
//     must match -?[0-9]+ within the int range, so a '%' or '+' in
//     them is an error. A key holding '%' is an error, since decoded it
//     could spell s or t; every other segment is ignored.

// workspace carries one request's scratch buffers: the raw body, the
// decoded pairs, their answers, and the response bytes.
type workspace struct {
	body  []byte
	pairs []dpgraph.VertexPair
	vals  []float64
	buf   []byte
}

// maxPooledWorkspaceBytes caps the retained capacity of a pooled
// workspace so one huge batch does not pin its buffers forever.
const maxPooledWorkspaceBytes = 4 << 20

var (
	wsGets        atomic.Uint64
	wsNews        atomic.Uint64
	workspacePool = sync.Pool{New: func() any {
		wsNews.Add(1)
		return new(workspace)
	}}
)

func getWorkspace() *workspace {
	wsGets.Add(1)
	return workspacePool.Get().(*workspace)
}

func putWorkspace(ws *workspace) {
	retained := cap(ws.buf) + cap(ws.body) + 16*cap(ws.pairs) + 8*cap(ws.vals)
	if retained > maxPooledWorkspaceBytes {
		return
	}
	workspacePool.Put(ws)
}

// workspaceCounters reports pool checkouts and fresh constructions (a
// high news/gets ratio means the pool is thrashing), for /metrics.
func workspaceCounters() (gets, news uint64) { return wsGets.Load(), wsNews.Load() }

// contentTypeJSON is the shared header value slice; assigning it
// directly avoids the per-call []string allocation of Header().Set.
var contentTypeJSON = []string{"application/json"}

func setContentTypeJSON(h http.Header) {
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = contentTypeJSON
	}
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip form, scientific notation only outside
// [1e-6, 1e21), and a minimal exponent ("e-9", not "e-09").
//
//dpvet:hotpath
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendPairAnswer appends one answered pair in PairAnswer's wire form,
// including its null+unreachable convention for ±Inf.
//
//dpvet:hotpath
func appendPairAnswer(b []byte, s, t int, v float64) []byte {
	b = append(b, `{"s":`...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(t), 10)
	if math.IsInf(v, 0) {
		return append(b, `,"value":null,"unreachable":true}`...)
	}
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, v)
	return append(b, '}')
}

// appendErrorLine appends the standard {"error":...} envelope as one
// NDJSON line. Error paths are cold; delegating the string escaping to
// encoding/json keeps them correct for arbitrary message bytes.
func appendErrorLine(b []byte, err error) []byte {
	msg, merr := json.Marshal(errorEnvelope{Error: err.Error()})
	if merr != nil {
		msg = []byte(`{"error":"internal: unencodable error"}`)
	}
	b = append(b, msg...)
	return append(b, '\n')
}

// parseQueryPair reads s and t from a raw query string (grammar above).
//
//dpvet:hotpath
func parseQueryPair(raw string) (p dpgraph.VertexPair, err error) {
	var sVal, tVal string
	var haveS, haveT bool
	for rest := raw; rest != ""; {
		seg := rest
		if k := strings.IndexByte(rest, '&'); k >= 0 {
			seg, rest = rest[:k], rest[k+1:]
		} else {
			rest = ""
		}
		key, val, _ := strings.Cut(seg, "=")
		switch {
		case key == "s" && !haveS:
			sVal, haveS = val, true
		case key == "t" && !haveT:
			tVal, haveT = val, true
		case strings.IndexByte(key, '%') >= 0:
			return p, queryError(sVal, tVal, key)
		}
	}
	var errS, errT error
	p.S, errS = strconv.Atoi(sVal)
	p.T, errT = strconv.Atoi(tVal)
	if errS != nil || errT != nil || sVal[0] == '+' || tVal[0] == '+' {
		return p, queryError(sVal, tVal, "")
	}
	return p, nil
}

// queryError reports a query string parseQueryPair rejects, given the
// s and t values it found and the percent-escaped key that stopped it,
// if any.
func queryError(sVal, tVal, escapedKey string) error {
	if escapedKey != "" {
		return fmt.Errorf("want integer query parameters s and t, got percent-escaped key %q", escapedKey)
	}
	return fmt.Errorf("want integer query parameters s and t, got s=%q t=%q", sVal, tVal)
}

// isJSONSpace reports JSON (RFC 8259) insignificant whitespace.
//
//dpvet:hotpath
func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

//dpvet:hotpath
func skipJSONSpace(data []byte, i int) int {
	for i < len(data) && isJSONSpace(data[i]) {
		i++
	}
	return i
}

// textSpace is the ASCII whitespace that separates the fields of a text
// line: the ASCII members of unicode.IsSpace.
const textSpace = " \t\n\v\f\r"

//dpvet:hotpath
func isTextSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

//dpvet:hotpath
func skipTextSpace(data []byte, i int) int {
	for i < len(data) && isTextSpace(data[i]) {
		i++
	}
	return i
}

// parseInt reads a decimal integer in [math.MinInt, math.MaxInt] at
// data[i:], returning it and the index just past it; on failure next is
// i. A JSON integer (json true) takes no '+' sign and no leading zero;
// a text field takes both, as strconv.Atoi does.
//
//dpvet:hotpath
func parseInt(data []byte, i int, json bool) (v, next int, ok bool) {
	j := i
	neg := j < len(data) && data[j] == '-'
	if neg || (!json && j < len(data) && data[j] == '+') {
		j++
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++ // |math.MinInt|
	}
	start, cutoff := j, limit/10
	var u uint64
	for ; j < len(data) && data[j] >= '0' && data[j] <= '9'; j++ {
		if u > cutoff {
			return 0, i, false
		}
		if u = u*10 + uint64(data[j]-'0'); u > limit {
			return 0, i, false
		}
	}
	if j == start || (json && data[start] == '0' && j-start > 1) {
		return 0, i, false
	}
	v = int(u) // wraps to math.MinInt for |math.MinInt|, which negation keeps
	if neg {
		v = -v
	}
	return v, j, true
}

// Token descriptions the JSON parsers report as the thing they wanted
// where they stopped.
const (
	wantInt       = "an integer"
	wantBothKeys  = `both "s" and "t"`
	wantEndOfJSON = "end of input"
)

// parseObject reads one point object at data[i]. On success want is ""
// and next is past the '}'; otherwise next is the byte at fault and
// want describes what should have been there.
//
//dpvet:hotpath
func parseObject(data []byte, i int) (p dpgraph.VertexPair, next int, want string) {
	if i >= len(data) || data[i] != '{' {
		return p, i, `"{"`
	}
	var haveS, haveT bool
	for {
		i = skipJSONSpace(data, i+1) // past '{' or ','
		if i+2 >= len(data) || data[i] != '"' || data[i+2] != '"' || (data[i+1] != 's' && data[i+1] != 't') {
			return p, i, `key "s" or "t"`
		}
		key := data[i+1]
		i = skipJSONSpace(data, i+3)
		if i >= len(data) || data[i] != ':' {
			return p, i, `":"`
		}
		v, j, ok := parseInt(data, skipJSONSpace(data, i+1), true)
		if !ok {
			return p, j, wantInt
		}
		if key == 's' {
			p.S, haveS = v, true
		} else {
			p.T, haveT = v, true
		}
		if i = skipJSONSpace(data, j); i >= len(data) || data[i] != ',' {
			break
		}
	}
	if i >= len(data) || data[i] != '}' {
		return p, i, `"," or "}"`
	}
	if !haveS || !haveT {
		return p, i, wantBothKeys
	}
	return p, i + 1, ""
}

// parseTuple reads one [S,T] tuple at data[i], reporting like
// parseObject.
//
//dpvet:hotpath
func parseTuple(data []byte, i int) (p dpgraph.VertexPair, next int, want string) {
	if i >= len(data) || data[i] != '[' {
		return p, i, `"["`
	}
	var ok bool
	if p.S, i, ok = parseInt(data, skipJSONSpace(data, i+1), true); !ok {
		return p, i, wantInt
	}
	if i = skipJSONSpace(data, i); i >= len(data) || data[i] != ',' {
		return p, i, `","`
	}
	if p.T, i, ok = parseInt(data, skipJSONSpace(data, i+1), true); !ok {
		return p, i, wantInt
	}
	if i = skipJSONSpace(data, i); i >= len(data) || data[i] != ']' {
		return p, i, `"]"`
	}
	return p, i + 1, ""
}

// parsePointBody reads a point body: one point object.
//
//dpvet:hotpath
func parsePointBody(data []byte) (dpgraph.VertexPair, error) {
	p, i, want := parseObject(data, skipJSONSpace(data, 0))
	if want == "" {
		if i = skipJSONSpace(data, i); i < len(data) {
			want = wantEndOfJSON
		}
	}
	if want != "" {
		return p, syntaxError("bad pair body", data, i, want)
	}
	return p, nil
}

// parsePairs appends the pairs of a batch body to dst.
//
//dpvet:hotpath
func parsePairs(dst []dpgraph.VertexPair, data []byte) ([]dpgraph.VertexPair, error) {
	if i := skipJSONSpace(data, 0); i < len(data) && data[i] == '[' {
		return parseArray(dst, data, i)
	}
	if skipTextSpace(data, 0) == len(data) {
		return dst, ErrNoPairs
	}
	for lineNo := 1; len(data) > 0; lineNo++ {
		line := data
		if k := bytes.IndexByte(data, '\n'); k >= 0 {
			line, data = data[:k], data[k+1:]
		} else {
			data = nil
		}
		p, skip, ok := parseTextLine(line)
		if !ok {
			return dst, lineError(lineNo, line)
		}
		if !skip {
			dst = append(dst, p)
		}
	}
	return dst, nil
}

// parseArray appends the elements of the JSON batch array at data[i].
//
//dpvet:hotpath
func parseArray(dst []dpgraph.VertexPair, data []byte, i int) ([]dpgraph.VertexPair, error) {
	i = skipJSONSpace(data, i+1)
	objects := i < len(data) && data[i] == '{'
	empty := i < len(data) && data[i] == ']'
	for n := 0; !empty; n++ {
		start := i
		var p dpgraph.VertexPair
		var want string
		if objects {
			p, i, want = parseObject(data, i)
		} else {
			p, i, want = parseTuple(data, i)
		}
		if want != "" {
			return dst, batchError(data, n, start, i, want)
		}
		dst = append(dst, p)
		if i = skipJSONSpace(data, i); i >= len(data) || data[i] != ',' {
			break
		}
		i = skipJSONSpace(data, i+1)
	}
	if i >= len(data) || data[i] != ']' {
		return dst, syntaxError("bad JSON pairs", data, i, `"," or "]"`)
	}
	if i = skipJSONSpace(data, i+1); i < len(data) {
		return dst, syntaxError("bad JSON pairs", data, i, wantEndOfJSON)
	}
	return dst, nil
}

// parseTextLine reads one text line: a pair, or skip for a blank or
// comment line; ok is false for anything else.
//
//dpvet:hotpath
func parseTextLine(line []byte) (p dpgraph.VertexPair, skip, ok bool) {
	i := skipTextSpace(line, 0)
	if i == len(line) || line[i] == '#' {
		return p, true, true
	}
	if p.S, i, ok = parseInt(line, i, false); !ok || i == len(line) || !isTextSpace(line[i]) {
		return p, false, false
	}
	if p.T, i, ok = parseInt(line, skipTextSpace(line, i), false); !ok || skipTextSpace(line, i) < len(line) {
		return p, false, false
	}
	return p, false, true
}

// lineError reports a malformed text line.
func lineError(lineNo int, line []byte) error {
	return fmt.Errorf("line %d: want two integers \"s t\", got %q", lineNo, bytes.Trim(line, textSpace))
}

// batchError reports why element n of a JSON batch, which starts at
// byte start, failed at byte at: a tuple of integers with the wrong
// arity gets its count, anything else a syntax error.
func batchError(data []byte, n, start, at int, want string) error {
	if k, ok := tupleLen(data, start); ok && k != 2 {
		return fmt.Errorf("JSON pair %d has %d elements, want 2", n, k)
	}
	return syntaxError("bad JSON pairs", data, at, want)
}

// tupleLen counts the elements of the JSON array of integers at
// data[i], reporting !ok when there is none there.
func tupleLen(data []byte, i int) (k int, ok bool) {
	if i >= len(data) || data[i] != '[' {
		return 0, false
	}
	if i = skipJSONSpace(data, i+1); i < len(data) && data[i] == ']' {
		return 0, true
	}
	for {
		_, next, ok := parseInt(data, i, true)
		if !ok {
			return 0, false
		}
		k++
		if i = skipJSONSpace(data, next); i >= len(data) || data[i] != ',' {
			return k, i < len(data) && data[i] == ']'
		}
		i = skipJSONSpace(data, i+1)
	}
}

// syntaxError reports what a JSON parser wanted at byte at and what it
// found there.
func syntaxError(prefix string, data []byte, at int, want string) error {
	if at >= len(data) {
		return fmt.Errorf("%s: want %s at byte %d, got end of input", prefix, want, at)
	}
	got := data[at:min(at+16, len(data))]
	if want == wantInt {
		j := at + 1
		for j < len(data) && data[j] >= '0' && data[j] <= '9' {
			j++
		}
		if _, err := strconv.Atoi(string(data[at:j])); errors.Is(err, strconv.ErrRange) {
			return fmt.Errorf("%s: integer %s at byte %d is out of the int range", prefix, data[at:j], at)
		}
	}
	return fmt.Errorf("%s: want %s at byte %d, got %q", prefix, want, at, got)
}

// ReadBodyLimit reads r fully into dst (reusing its capacity) and
// refuses a body over limit bytes with an *http.MaxBytesError, which
// WriteBodyError maps onto 413. It replaces the
// io.ReadAll(http.MaxBytesReader(...)) pair, which allocates a fresh
// reader and result slice per request. It grows dst only as bytes
// arrive: a caller that trusts a declared length may size dst to it,
// plus one byte for the read that reports EOF.
//
//dpvet:hotpath
func ReadBodyLimit(dst []byte, r io.Reader, limit int64) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if int64(len(dst)) > limit {
			return dst, &http.MaxBytesError{Limit: limit} //dpvet:allow hotpath -- oversized-body rejection is a cold error path; well-formed requests never reach it
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
