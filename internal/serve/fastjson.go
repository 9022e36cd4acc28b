package serve

import (
	"bytes"
	"encoding/json"
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

// This file is the allocation-free request path: pooled per-request
// workspaces, append-based encoders for the distance response shapes,
// and conservative fast parsers for the three query input forms (URL
// query string, point JSON body, batch pairs body). Every fast parser
// accepts only inputs it understands bit-for-bit identically to the
// reflection-based path and reports !ok otherwise, so handlers fall
// back to the encoding/json code for anything unusual — error messages
// and acceptance stay exactly as before, and only the hot shapes pay
// zero allocations.

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

// scanQueryPair reads s and t straight from a raw query string without
// building the url.Values map. It understands only verbatim
// "s=<int>&t=<int>" spellings (any order, extra keys ignored like
// url.Values.Get, first occurrence wins); percent escapes, '+', or ';'
// make it report !ok so the caller re-parses through url.Values with
// unchanged semantics.
//
//dpvet:hotpath
func scanQueryPair(raw string) (s, t int, ok bool) {
	var haveS, haveT bool
	for len(raw) > 0 {
		var seg string
		if k := strings.IndexByte(raw, '&'); k >= 0 {
			seg, raw = raw[:k], raw[k+1:]
		} else {
			seg, raw = raw, ""
		}
		if seg == "" {
			continue
		}
		if strings.IndexByte(seg, '%') >= 0 || strings.IndexByte(seg, '+') >= 0 || strings.IndexByte(seg, ';') >= 0 {
			return 0, 0, false
		}
		eq := strings.IndexByte(seg, '=')
		if eq < 0 {
			continue // bare key: url.Values maps it to "", irrelevant to s/t
		}
		key, val := seg[:eq], seg[eq+1:]
		switch key {
		case "s":
			if haveS {
				continue
			}
			v, err := strconv.Atoi(val)
			if err != nil {
				return 0, 0, false
			}
			s, haveS = v, true
		case "t":
			if haveT {
				continue
			}
			v, err := strconv.Atoi(val)
			if err != nil {
				return 0, 0, false
			}
			t, haveT = v, true
		}
	}
	if !haveS || !haveT {
		return 0, 0, false
	}
	return s, t, true
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

// parseJSONInt parses one JSON integer literal (no fraction, exponent,
// or leading zeros) starting at i, reporting the value and the index
// past it.
//
//dpvet:hotpath
func parseJSONInt(data []byte, i int) (val, next int, ok bool) {
	neg := false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	start := i
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		if val > (math.MaxInt-9)/10 {
			return 0, 0, false // overflow: defer to the strict parser
		}
		val = val*10 + int(data[i]-'0')
		i++
	}
	if i == start {
		return 0, 0, false
	}
	if data[start] == '0' && i-start > 1 {
		return 0, 0, false // leading zero is not JSON
	}
	if neg {
		val = -val
	}
	return val, i, true
}

// parseATOI parses an optionally signed ASCII integer over the whole
// byte range, with strconv.Atoi's acceptance (leading zeros fine,
// leading '+' fine) minus its allocation.
//
//dpvet:hotpath
func parseATOI(data []byte) (val int, ok bool) {
	i := 0
	neg := false
	if i < len(data) && (data[i] == '+' || data[i] == '-') {
		neg = data[i] == '-'
		i++
	}
	if i == len(data) {
		return 0, false
	}
	for ; i < len(data); i++ {
		c := data[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if val > (math.MaxInt-9)/10 {
			return 0, false
		}
		val = val*10 + int(c-'0')
	}
	if neg {
		val = -val
	}
	return val, true
}

// parsePointBodyFast decodes one {"s":<int>,"t":<int>} object (either
// key order, duplicate keys last-wins like encoding/json). Anything
// else — unknown keys, escapes, non-integer values, trailing content —
// reports !ok for the strict decoder to re-parse.
//
//dpvet:hotpath
func parsePointBodyFast(data []byte) (s, t int, ok bool) {
	i := skipJSONSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return 0, 0, false
	}
	i = skipJSONSpace(data, i+1)
	var haveS, haveT bool
	for {
		if i >= len(data) {
			return 0, 0, false
		}
		if data[i] == '}' && !haveS && !haveT {
			return 0, 0, false // empty object: let the strict path report missing keys
		}
		if i+2 >= len(data) || data[i] != '"' || data[i+2] != '"' {
			return 0, 0, false
		}
		key := data[i+1]
		if key != 's' && key != 't' {
			return 0, 0, false
		}
		i = skipJSONSpace(data, i+3)
		if i >= len(data) || data[i] != ':' {
			return 0, 0, false
		}
		i = skipJSONSpace(data, i+1)
		v, next, vok := parseJSONInt(data, i)
		if !vok {
			return 0, 0, false
		}
		if key == 's' {
			s, haveS = v, true
		} else {
			t, haveT = v, true
		}
		i = skipJSONSpace(data, next)
		if i >= len(data) {
			return 0, 0, false
		}
		if data[i] == ',' {
			i = skipJSONSpace(data, i+1)
			continue
		}
		if data[i] != '}' {
			return 0, 0, false
		}
		i = skipJSONSpace(data, i+1)
		break
	}
	if i != len(data) || !haveS || !haveT {
		return 0, 0, false
	}
	return s, t, true
}

// parsePairsFast decodes the common batch shapes — text "s t" lines,
// JSON [[s,t],...], JSON [{"s":..,"t":..},...] — into dst without
// allocating beyond dst's growth. It reports !ok (with dst contents
// unspecified) for any input it is not certain ParsePairs would accept
// with the identical result, so the caller can fall back.
//
//dpvet:hotpath
func parsePairsFast(dst []dpgraph.VertexPair, data []byte) ([]dpgraph.VertexPair, bool) {
	i := skipJSONSpace(data, 0)
	if i >= len(data) {
		return dst, false // empty: slow path owns the ErrNoPairs message
	}
	if data[i] == '[' {
		j := skipJSONSpace(data, i+1)
		if j < len(data) && data[j] == '{' {
			return parseObjectPairsFast(dst, data, i)
		}
		return parseTuplePairsFast(dst, data, i)
	}
	return parseTextPairsFast(dst, data)
}

// parseTuplePairsFast decodes [[s,t], ...] starting at the '[' at i.
//
//dpvet:hotpath
func parseTuplePairsFast(dst []dpgraph.VertexPair, data []byte, i int) ([]dpgraph.VertexPair, bool) {
	i = skipJSONSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return dst, skipJSONSpace(data, i+1) == len(data)
	}
	for {
		if i >= len(data) || data[i] != '[' {
			return dst, false
		}
		i = skipJSONSpace(data, i+1)
		s, next, ok := parseJSONInt(data, i)
		if !ok {
			return dst, false
		}
		i = skipJSONSpace(data, next)
		if i >= len(data) || data[i] != ',' {
			return dst, false
		}
		i = skipJSONSpace(data, i+1)
		t, next, ok := parseJSONInt(data, i)
		if !ok {
			return dst, false
		}
		i = skipJSONSpace(data, next)
		if i >= len(data) || data[i] != ']' {
			return dst, false // wrong arity or junk: strict path reports it
		}
		dst = append(dst, dpgraph.VertexPair{S: s, T: t})
		i = skipJSONSpace(data, i+1)
		if i < len(data) && data[i] == ',' {
			i = skipJSONSpace(data, i+1)
			continue
		}
		break
	}
	if i >= len(data) || data[i] != ']' {
		return dst, false
	}
	return dst, skipJSONSpace(data, i+1) == len(data)
}

// parseObjectPairsFast decodes [{"s":..,"t":..}, ...] starting at the
// '[' at i, with encoding/json's member semantics for the two known
// keys (missing key defaults to zero, duplicate key last-wins).
//
//dpvet:hotpath
func parseObjectPairsFast(dst []dpgraph.VertexPair, data []byte, i int) ([]dpgraph.VertexPair, bool) {
	i = skipJSONSpace(data, i+1)
	for {
		if i >= len(data) || data[i] != '{' {
			return dst, false
		}
		i = skipJSONSpace(data, i+1)
		var p dpgraph.VertexPair
		for i < len(data) && data[i] != '}' {
			if i+2 >= len(data) || data[i] != '"' || data[i+2] != '"' {
				return dst, false
			}
			key := data[i+1]
			if key != 's' && key != 't' {
				return dst, false // unknown or escaped key: strict path rejects/handles
			}
			i = skipJSONSpace(data, i+3)
			if i >= len(data) || data[i] != ':' {
				return dst, false
			}
			i = skipJSONSpace(data, i+1)
			v, next, ok := parseJSONInt(data, i)
			if !ok {
				return dst, false
			}
			if key == 's' {
				p.S = v
			} else {
				p.T = v
			}
			i = skipJSONSpace(data, next)
			if i < len(data) && data[i] == ',' {
				i = skipJSONSpace(data, i+1)
				if i < len(data) && data[i] == '}' {
					return dst, false // trailing comma is not JSON
				}
				continue
			}
			if i >= len(data) || data[i] != '}' {
				return dst, false // a member is followed by ',' or '}' only
			}
		}
		if i >= len(data) {
			return dst, false
		}
		dst = append(dst, p)
		i = skipJSONSpace(data, i+1)
		if i < len(data) && data[i] == ',' {
			i = skipJSONSpace(data, i+1)
			continue
		}
		break
	}
	if i >= len(data) || data[i] != ']' {
		return dst, false
	}
	return dst, skipJSONSpace(data, i+1) == len(data)
}

// isTextSpace matches the ASCII whitespace strings.Fields would split
// on within a line (the line separator '\n' is handled by the caller).
//
//dpvet:hotpath
func isTextSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// parseTextPairsFast decodes "s t" lines: blank lines and '#' comment
// lines skipped, exactly two integer fields otherwise. Any byte outside
// digits, signs, '#', and ASCII whitespace defers to the strict parser
// (which also owns all error reporting).
//
//dpvet:hotpath
func parseTextPairsFast(dst []dpgraph.VertexPair, data []byte) ([]dpgraph.VertexPair, bool) {
	for len(data) > 0 {
		var line []byte
		if k := bytes.IndexByte(data, '\n'); k >= 0 {
			line, data = data[:k], data[k+1:]
		} else {
			line, data = data, nil
		}
		lo, hi := 0, len(line)
		for lo < hi && isTextSpace(line[lo]) {
			lo++
		}
		for hi > lo && isTextSpace(line[hi-1]) {
			hi--
		}
		line = line[lo:hi]
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		k := 0
		for k < len(line) && !isTextSpace(line[k]) {
			k++
		}
		f0 := line[:k]
		for k < len(line) && isTextSpace(line[k]) {
			k++
		}
		rest := line[k:]
		for _, c := range rest {
			if isTextSpace(c) {
				return dst, false // three or more fields: strict path reports it
			}
		}
		s, ok1 := parseATOI(f0)
		t, ok2 := parseATOI(rest)
		if !ok1 || !ok2 {
			return dst, false
		}
		dst = append(dst, dpgraph.VertexPair{S: s, T: t})
	}
	if len(dst) == 0 {
		return dst, false // nothing but comments/blanks: slow path decides
	}
	return dst, true
}

// bodyTooLargeError mirrors http.MaxBytesError for the manual body
// reader; writeBodyError maps both onto 413.
type bodyTooLargeError struct{ limit int64 }

func (e *bodyTooLargeError) Error() string {
	return fmt.Sprintf("request body exceeds %d bytes", e.limit)
}

// readBodyLimit reads r fully into dst (reusing its capacity), erroring
// once more than limit bytes arrive. It replaces the
// io.ReadAll(http.MaxBytesReader(...)) pair, which allocates a fresh
// reader and result slice per request.
//
//dpvet:hotpath
func readBodyLimit(dst []byte, r io.Reader, limit int64) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if int64(len(dst)) > limit {
			return dst, &bodyTooLargeError{limit: limit} //dpvet:allow hotpath -- oversized-body rejection is a cold error path; well-formed requests never reach it
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
