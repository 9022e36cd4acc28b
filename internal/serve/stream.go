package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"time"
)

// streamBatchMax bounds how many pending stream queries are answered in
// one oracle batch: large enough to amortize the per-batch write and
// flush, small enough that the first answers of a long stream arrive
// promptly. An indexed release answers every pair with one point query
// whatever the batch size, so the bound trades only write amortization
// against latency.
const streamBatchMax = 512

// streamLineMax bounds one NDJSON input line; a pair of ints never
// comes close, so anything longer is a protocol error, not data.
const streamLineMax = 64 << 10

// handleStream is the pipelined batch endpoint: the client streams text
// "s t" lines and receives one compact PairAnswer JSON line per query,
// in order, without per-query HTTP round trips. Queries are answered in
// mini-batches — everything buffered when the reader would block, up to
// streamBatchMax — so a pipelining client gets batch throughput with
// single-stream latency. One admission slot covers the whole stream. A
// malformed line terminates the stream with one {"error":...} line
// after the answers already written.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	rel, ok := s.resolve(w, r)
	if !ok {
		return
	}
	if !s.admitOrShed(w, rel) {
		return
	}
	defer rel.done()
	rel.metrics.requests.Add(1)
	// Without full duplex the HTTP/1 server silently drains the rest of
	// the request body at the first response flush, truncating a
	// pipelining client's stream to whatever arrived before the first
	// batch of answers. Errors (recorders, HTTP/2) are fine to ignore:
	// those writers never drain the body.
	http.NewResponseController(w).EnableFullDuplex() //nolint:errcheck
	h := w.Header()
	h["Content-Type"] = []string{"application/x-ndjson"}
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)

	ws := getWorkspace()
	defer putWorkspace(ws)
	br := bufio.NewReaderSize(r.Body, 64<<10)
	pairs := ws.pairs[:0]
	vals := ws.vals
	buf := ws.buf

	fail := func(err error) {
		rel.metrics.errors.Add(1)
		buf = appendErrorLine(buf[:0], err)
		w.Write(buf) //nolint:errcheck // the stream is already committed
		if fl != nil {
			fl.Flush()
		}
	}
	flush := func() bool {
		if len(pairs) == 0 {
			return true
		}
		start := time.Now()
		if cap(vals) < len(pairs) {
			vals = make([]float64, len(pairs))
		}
		out := vals[:len(pairs)]
		if err := rel.oracle.DistancesInto(pairs, out); err != nil {
			fail(err)
			return false
		}
		buf = buf[:0]
		for i, p := range pairs {
			buf = appendPairAnswer(buf, p.S, p.T, out[i])
			buf = append(buf, '\n')
		}
		if _, err := w.Write(buf); err != nil {
			return false // client went away; no one is listening for an error
		}
		rel.metrics.observe(len(pairs), time.Since(start))
		pairs = pairs[:0]
		return true
	}

	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			flush()
			fail(fmt.Errorf("stream line %d exceeds %d bytes", lineNo, streamLineMax))
			break
		}
		if p, skip, ok := parseTextLine(line); !skip {
			if !ok || !rel.inRange(p.S, p.T) {
				flush()
				fail(fmt.Errorf("stream line %d: want \"s t\" with vertices in [0, %d), got %q", lineNo, rel.oracle.N(), bytes.Trim(line, textSpace)))
				break
			}
			pairs = append(pairs, p)
		}
		// Answer when the pipeline runs dry or the batch is full: a
		// client with more lines already in flight keeps filling the
		// batch, a waiting client gets its answers now.
		if len(pairs) >= streamBatchMax || br.Buffered() == 0 || err != nil {
			drained := br.Buffered() == 0
			if !flush() {
				break
			}
			if fl != nil && (drained || err != nil) {
				fl.Flush()
			}
		}
		if err != nil {
			break // io.EOF ends the stream; anything else lost the client
		}
	}
	ws.pairs, ws.vals, ws.buf = pairs[:0], vals, buf
}
