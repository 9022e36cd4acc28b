package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// toyConfig shrinks the benchmark to a small city and short phases.
func toyConfig(t *testing.T, workload string, trace bool) *config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 3
	cfg.seconds = 0.4
	cfg.trace = trace
	cfg.workDir = t.TempDir()
	cfg.side = 40
	cfg.setups = 2
	cfg.pointRate = 500
	cfg.poolSize = 128
	cfg.batchSize = 16
	cfg.errOrigins = 4
	cfg.errTargets = 16
	cfg.checkPairs = 32
	cfg.warmRequests = 40
	cfg.probeSeconds = 0.4
	return &cfg
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestEveryMetricEmitted runs every workload at toy size, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// declares, with their units, and that every check passes.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layers := benchmarkMetrics(t)
	for _, w := range []string{"publish", "point", "batch", "routed"} {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layers
			}
			res, err := run(toyConfig(t, w, trace), io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", w, trace, got, want)
			}
		}
	}
}

// TestPlantedWrongAnswerFails plants one wrong answer in each workload
// and checks that the run reports itself incorrect.
func TestPlantedWrongAnswerFails(t *testing.T) {
	for _, w := range []string{"publish", "point", "batch", "routed"} {
		cfg := toyConfig(t, w, false)
		cfg.plant = true
		var errs strings.Builder
		res, err := run(cfg, io.Discard, &errs)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct {
			t.Errorf("%s: a planted wrong answer passed the checks", w)
		}
		if !strings.Contains(errs.String(), "MISMATCH") {
			t.Errorf("%s: no mismatch reported: %s", w, errs.String())
		}
	}
}

// TestNewCityMatchesTraffic checks that the fast generator builds the
// same network as traffic.NewCity from the same random stream.
func TestNewCityMatchesTraffic(t *testing.T) {
	for _, side := range []int{5, 24, 40} {
		want, err := traffic.NewCity(traffic.Config{Side: side}, rand.New(rand.NewSource(int64(side))))
		if err != nil {
			t.Fatal(err)
		}
		got := newCity(side, rand.New(rand.NewSource(int64(side))))
		if !reflect.DeepEqual(got.G.Edges(), want.G.Edges()) || !reflect.DeepEqual(got.FreeFlow, want.FreeFlow) ||
			!reflect.DeepEqual(got.Arterial, want.Arterial) || got.MaxTime != want.MaxTime || got.Side != want.Side {
			t.Errorf("side %d: generated city differs from traffic.NewCity", side)
		}
	}
}

// TestBatchPairsNeverRepeat checks the batch traffic's no-repeat
// guarantee across clients and shapes.
func TestBatchPairsNeverRepeat(t *testing.T) {
	cfg := toyConfig(t, "batch", false)
	in, err := newInput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	const clients = 3
	for c := 0; c < clients; c++ {
		g := newBatchGen(in, cfg.batchSize, c, clients)
		for k := 0; k < g.limit(); k++ {
			for _, p := range g.batch(k, nil) {
				key := [2]int{min(p.S, p.T), max(p.S, p.T)}
				if seen[key] || p.S == p.T {
					t.Fatalf("client %d batch %d: pair %v repeats", c, k, p)
				}
				seen[key] = true
			}
		}
	}
}
