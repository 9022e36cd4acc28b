//go:build !race

package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The zero-allocation tests pin ISSUE 8's tentpole claim at its
// strongest: the point and small-batch handlers allocate nothing on
// the steady-state hot path. They invoke the handlers directly (mux
// routing and httptest recorders allocate inside the standard library,
// which is not ours to fix) with a reusable ResponseWriter and a
// replayable body. Build-tagged !race because the race runtime adds
// its own allocations.

// nullWriter is a reusable allocation-free http.ResponseWriter: the
// header map persists across runs (so the shared Content-Type value is
// installed once) and writes are counted, not stored.
type nullWriter struct {
	h    http.Header
	code int
	n    int
}

func newNullWriter() *nullWriter { return &nullWriter{h: make(http.Header)} }

func (w *nullWriter) Header() http.Header { return w.h }

func (w *nullWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func (w *nullWriter) WriteHeader(code int) { w.code = code }

func (w *nullWriter) reset() { w.code, w.n = 0, 0 }

// replayBody is a rewindable request body.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

func (b *replayBody) rewind() { b.off = 0 }

// allocServer builds a server with one ready hub-labeled release and
// returns it with the release name pre-set on req path values.
func allocServer(t *testing.T) *Server {
	t.Helper()
	s, ts := newTestServer(t, Config{})
	createRelease(t, ts, `{"name":"main","mechanism":"release","epsilon":2,"seed":7,"index":"hl"}`)
	return s
}

func requireZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	for i := 0; i < 8; i++ {
		f() // warm the pools, caches, and lazy envelope chunks
	}
	if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", what, allocs)
	}
}

// TestServeDistanceZeroAlloc: steady-state GET and POST point queries
// allocate nothing in our handler path.
func TestServeDistanceZeroAlloc(t *testing.T) {
	s := allocServer(t)

	getReq := httptest.NewRequest(http.MethodGet, "/v1/releases/main/distance?s=0&t=15", nil)
	getReq.SetPathValue("name", "main")
	w := newNullWriter()
	requireZeroAllocs(t, "GET /distance", func() {
		w.reset()
		s.handleDistance(w, getReq)
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("GET answered %d with %d bytes", w.code, w.n)
		}
	})

	body := &replayBody{data: []byte(`{"s":0,"t":15}`)}
	postReq := httptest.NewRequest(http.MethodPost, "/v1/releases/main/distance", body)
	postReq.SetPathValue("name", "main")
	requireZeroAllocs(t, "POST /distance", func() {
		w.reset()
		body.rewind()
		s.handleDistance(w, postReq)
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("POST answered %d with %d bytes", w.code, w.n)
		}
	})
}

// TestServeDistancesZeroAlloc: the steady-state batch handler — text,
// JSON tuple and JSON object bodies — allocates nothing in our code.
func TestServeDistancesZeroAlloc(t *testing.T) {
	s := allocServer(t)

	for _, tc := range []struct {
		name string
		body string
	}{
		{"text", "0 15\n1 2\n3 3\n15 0\n"},
		{"tuples", "[[0,15],[1,2],[3,3],[15,0]]"},
		{"objects", `[{"s":0,"t":15},{"s":1,"t":2},{"t":3,"s":3},{"s":15,"t":0}]`},
	} {
		body := &replayBody{data: []byte(tc.body)}
		req := httptest.NewRequest(http.MethodPost, "/v1/releases/main/distances", body)
		req.SetPathValue("name", "main")
		w := newNullWriter()
		requireZeroAllocs(t, "POST /distances "+tc.name, func() {
			w.reset()
			body.rewind()
			s.handleDistances(w, req)
			if w.code != http.StatusOK || w.n == 0 {
				t.Fatalf("batch %s answered %d with %d bytes", tc.name, w.code, w.n)
			}
		})
	}
}
