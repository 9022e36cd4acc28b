package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLivezReadyz pins the liveness/readiness split: /livez says the
// process is up, /readyz says the releases are materialized and the
// server is not draining — and lists the ready release names (the
// coordinator's routing table rides on that).
func TestLivezReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	if status, _ := get(t, ts.URL+"/livez"); status != http.StatusOK {
		t.Errorf("livez status %d", status)
	}
	var rz struct {
		Status   string   `json:"status"`
		Releases []string `json:"releases"`
	}
	status, data := get(t, ts.URL+"/readyz")
	if err := json.Unmarshal(data, &rz); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || rz.Status != "ready" || len(rz.Releases) != 0 {
		t.Errorf("empty readyz = %d %+v", status, rz)
	}

	createRelease(t, ts, `{"name":"main","mechanism":"release","seed":7}`)
	status, data = get(t, ts.URL+"/readyz")
	if err := json.Unmarshal(data, &rz); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || len(rz.Releases) != 1 || rz.Releases[0] != "main" {
		t.Errorf("readyz after release = %d %+v", status, rz)
	}

	// Draining: readyz flips, new queries shed with Retry-After, the
	// process stays live, health endpoints stay reachable.
	s.StartDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	status, data = get(t, ts.URL+"/readyz")
	if err := json.Unmarshal(data, &rz); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || rz.Status != "draining" {
		t.Errorf("draining readyz = %d %+v", status, rz)
	}
	if status, _ := get(t, ts.URL+"/livez"); status != http.StatusOK {
		t.Errorf("livez during drain: status %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/releases/main/distance?s=0&t=15")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining query: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if status, _ := get(t, ts.URL+"/metrics"); status != http.StatusOK {
		t.Errorf("metrics during drain: status %d", status)
	}
}

// TestRegistryLifecycleRace hammers one release name with concurrent
// DELETE, snapshot :import, and point queries under -race. The
// invariant: a query either fails cleanly with 404 (the release was
// gone, or was an :import placeholder not yet published) or answers
// with exactly the released value — never a half-deleted release's
// garbage, never a 5xx.
func TestRegistryLifecycleRace(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Seeded release: its values are deterministic, and the snapshot
	// reimports to bit-identical values, so ground truth is stable
	// across every delete/import cycle.
	createRelease(t, ts, `{"name":"race","mechanism":"release","epsilon":2,"seed":7}`)
	status, artifact, _ := fetchSnapshot(t, ts.URL+"/v1/releases/race/snapshot")
	if status != http.StatusOK {
		t.Fatalf("snapshot: status %d", status)
	}
	truth := make([]float64, 16)
	for u := 0; u < 16; u++ {
		truth[u] = distanceOf(t, ts.URL, "race", 0, u).Value
	}

	const iterations = 150
	var (
		wg        sync.WaitGroup
		served    atomic.Int64
		badStatus atomic.Value
	)
	// Deleter: rips the release out from under everyone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/releases/race", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				badStatus.Store(fmt.Sprintf("delete: %v", err))
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			// 204/200 when it existed, 404 when the importer lost the race.
			if resp.StatusCode >= 500 {
				badStatus.Store(fmt.Sprintf("delete: status %d", resp.StatusCode))
				return
			}
		}
	}()
	// Importer: keeps resurrecting it from the sealed artifact.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			resp, err := http.Post(ts.URL+"/v1/releases/race:import", "application/octet-stream", bytes.NewReader(artifact))
			if err != nil {
				badStatus.Store(fmt.Sprintf("import: %v", err))
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			// 201 when the name was free, 409 when it already existed.
			if resp.StatusCode >= 500 {
				badStatus.Store(fmt.Sprintf("import: status %d", resp.StatusCode))
				return
			}
		}
	}()
	// Queriers: same-source points, some in flight while the release
	// dies or while an import has only reserved its name.
	for wk := 0; wk < 4; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				u := (wk*5 + i) % 16
				resp, err := http.Get(fmt.Sprintf("%s/v1/releases/race/distance?s=0&t=%d", ts.URL, u))
				if err != nil {
					badStatus.Store(fmt.Sprintf("query: %v", err))
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					var ans PairAnswer
					if err := json.Unmarshal(data, &ans); err != nil {
						badStatus.Store(fmt.Sprintf("query: bad 200 body %s", data))
						return
					}
					if math.Float64bits(ans.Value) != math.Float64bits(truth[u]) {
						badStatus.Store(fmt.Sprintf("query (0,%d) answered %v from a half-deleted release, want %v", u, ans.Value, truth[u]))
						return
					}
					served.Add(1)
				case resp.StatusCode == http.StatusNotFound:
					// The release was deleted out from under us, or an
					// import had not published it yet: a clean miss.
				default:
					badStatus.Store(fmt.Sprintf("query: status %d: %s", resp.StatusCode, data))
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	if msg := badStatus.Load(); msg != nil {
		t.Fatal(msg)
	}
	if served.Load() == 0 {
		t.Error("no query ever landed on a live release; the race never exercised the serving path")
	}
}

// TestDrainSheds503 covers the drain→reject path without a real
// listener: once draining, every non-health endpoint sheds with a
// retryable 503 regardless of method.
func TestDrainSheds503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	createRelease(t, ts, `{"name":"main","mechanism":"release","seed":7}`)
	s.StartDrain()
	for _, probe := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/releases", ""},
		{http.MethodPost, "/v1/releases", `{"name":"x","mechanism":"release","seed":1}`},
		{http.MethodPost, "/v1/releases/main/distances", `[[0,1]]`},
		{http.MethodDelete, "/v1/releases/main", ""},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(probe.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s %s during drain: status %d, Retry-After %q",
				probe.method, probe.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
}
