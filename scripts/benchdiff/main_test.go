package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const testSpec = `{
  "workloads": [{"name": "publish"}, {"name": "point"}],
  "end_to_end": [
    {"name": "publish_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pairs_per_cpu_s", "unit": "pairs/cpu-s", "better": "higher", "bound": 0.25}
  ]
}`

// traj builds a trajectory with one run per (publish_s, pairs_per_cpu_s)
// value pair on each workload.
func traj(t *testing.T, failed int, vals ...[2]float64) *trajectory {
	t.Helper()
	var runs []string
	for _, wl := range []string{"publish", "point"} {
		for i, v := range vals {
			runs = append(runs, fmt.Sprintf(`{"workload": %q, "seed": %d, "result": {"correct": true, "attempted": 100, "failed": %d, `+
				`"metrics": {"publish_s": {"value": %g}, "pairs_per_cpu_s": {"value": %g}}}}`, wl, i+1, failed, v[0], v[1]))
		}
	}
	var tr trajectory
	if err := json.Unmarshal([]byte(`{"host": {}, "runs": [`+strings.Join(runs, ",")+`]}`), &tr); err != nil {
		t.Fatal(err)
	}
	return &tr
}

func testSpec0(t *testing.T) *spec {
	t.Helper()
	var s spec
	if err := json.Unmarshal([]byte(testSpec), &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestCompareBounds(t *testing.T) {
	old := traj(t, 0, [2]float64{4, 100}, [2]float64{5, 100}, [2]float64{6, 100})
	for _, tc := range []struct {
		name   string
		cur    *trajectory
		wantOK bool
	}{
		{"faster", traj(t, 0, [2]float64{3, 100}, [2]float64{3.2, 100}, [2]float64{9, 100}), true},
		{"slower within bound", traj(t, 0, [2]float64{6, 90}, [2]float64{6, 90}, [2]float64{6, 90}), true},
		{"slower beyond bound", traj(t, 0, [2]float64{6.5, 100}, [2]float64{6.5, 100}, [2]float64{1, 100}), false},
		{"throughput drop beyond bound", traj(t, 0, [2]float64{5, 70}, [2]float64{5, 70}, [2]float64{5, 200}), false},
		{"more failures", traj(t, 1, [2]float64{5, 100}, [2]float64{5, 100}, [2]float64{5, 100}), false},
	} {
		var out strings.Builder
		if got := compare(&out, testSpec0(t), old, tc.cur); got != tc.wantOK {
			t.Errorf("%s: compare = %v, want %v\n%s", tc.name, got, tc.wantOK, out.String())
		}
	}
}

// TestCompareSpread: every row shows each side's min-max range, and a
// WORSE row is marked unresolved only when the old runs alone span
// more than the bound. The mark never changes the verdict.
func TestCompareSpread(t *testing.T) {
	slow := traj(t, 0, [2]float64{8, 100}, [2]float64{8, 100}, [2]float64{8, 100})
	for _, tc := range []struct {
		name, want string
		old        *trajectory
		marked     bool
	}{
		{"tight old runs", "[4.5, 5.5]", traj(t, 0, [2]float64{4.5, 100}, [2]float64{5, 100}, [2]float64{5.5, 100}), false},
		{"wide old runs", "(unresolved: old runs span 120%)", traj(t, 0, [2]float64{2, 100}, [2]float64{5, 100}, [2]float64{8, 100}), true},
	} {
		var out strings.Builder
		if compare(&out, testSpec0(t), tc.old, slow) {
			t.Errorf("%s: compare = true, want false\n%s", tc.name, out.String())
		}
		if got := out.String(); !strings.Contains(got, tc.want) || !strings.Contains(got, "[8, 8]") ||
			strings.Contains(got, "unresolved") != tc.marked {
			t.Errorf("%s: output lacks %q or [8, 8], or marks unresolved = %v:\n%s", tc.name, tc.want, !tc.marked, got)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
}
