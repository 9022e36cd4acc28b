package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/dpgraph"
)

// benchServer materializes one seeded release over a Grid(side) and
// returns the handler plus the direct oracle for the overhead
// comparison.
func benchServer(b *testing.B, side int, index string) (http.Handler, dpgraph.DistanceOracle, int) {
	b.Helper()
	g := dpgraph.Grid(side)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%7)
	}
	spec := dpgraph.ReleaseSpec{Mechanism: "release", Seed: 42, Index: index}
	oracle, _, err := spec.Materialize(g, dpgraph.PrivateWeights(w))
	if err != nil {
		b.Fatal(err)
	}
	s := New(g, w, Config{})
	rel, err := s.reg.reserve("bench", spec, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Serve the exact oracle being measured directly, so the two
	// sub-benchmarks differ only by the HTTP layer.
	rel.oracle, rel.result = oracle, stubResult{}
	close(rel.ready)
	return s.Handler(), oracle, g.N()
}

// BenchmarkServeDistance compares a point distance query answered
// through the HTTP handler (request parse + admission + JSON response)
// against the same oracle called directly, once per index mode so the
// benchmark report distinguishes unindexed, CH, and hub-label serving.
// The direct/http gap on the unindexed oracle is the serving overhead
// scripts/check_perf_guards.sh gate #5 bounds.
func BenchmarkServeDistance(b *testing.B) {
	const side = 60 // 3,600 vertices: a query costs enough to dominate transport
	for _, mode := range []string{"off", "ch", "hl"} {
		b.Run(mode, func(b *testing.B) {
			handler, oracle, n := benchServer(b, side, mode)

			pairs := make([][2]int, 64)
			for i := range pairs {
				pairs[i] = [2]int{(i * 131) % n, (i*257 + n/2) % n}
			}

			b.Run("direct", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					if _, err := oracle.Distance(p[0], p[1]); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("http", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					req := httptest.NewRequest("GET", fmt.Sprintf("/v1/releases/bench/distance?s=%d&t=%d", p[0], p[1]), nil)
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d: %s", rec.Code, rec.Body)
					}
				}
			})
		})
	}
}

// BenchmarkServeBatch measures the batch endpoint's per-pair cost with
// a 256-pair body, the shape a throughput-oriented client sends.
func BenchmarkServeBatch(b *testing.B) {
	handler, _, n := benchServer(b, 60, "")
	var body strings.Builder
	body.WriteString("[")
	for i := 0; i < 256; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, "[%d,%d]", (i*131)%n, (i*257+n/2)%n)
	}
	body.WriteString("]")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/releases/bench/distances", strings.NewReader(body.String()))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
