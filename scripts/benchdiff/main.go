// Command benchdiff compares two benchmark trajectory files written by
// scripts/bench_run.sh against the end-to-end metrics and bounds that
// BENCHMARK.json declares. For each workload it prints, per metric, the
// median and the min-max range over the seeds on each side, the change
// in percent and the bound, plus the share of failed operations. It
// exits 1 when a metric is worse than OLD by more than its bound, when
// NEW fails a larger share of operations, or when a NEW run is not
// correct. A WORSE row whose old runs alone span more than the bound is
// marked unresolved, since the old side's own spread is then wider than
// the change it is judged by; the mark leaves the exit status as it is.
// Run it through scripts/bench_diff.sh:
//
//	scripts/bench_diff.sh BENCH_old.json BENCH_new.json
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// trajectory is one bench_run.sh file: the host line of its first run
// and one perfbench result per workload and seed.
type trajectory struct {
	Host json.RawMessage `json:"host"`
	Runs []struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Result   struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"result"`
	} `json:"runs"`
}

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff BENCHMARK.json OLD NEW")
		os.Exit(2)
	}
	var s spec
	var old, cur trajectory
	for i, v := range []any{&s, &old, &cur} {
		if err := readJSON(os.Args[i+1], v); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if !compare(os.Stdout, &s, &old, &cur) {
		os.Exit(1)
	}
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// sample is one side's runs of one workload.
type sample struct {
	runs              int
	incorrect         int
	attempted, failed int64
	metrics           map[string][]float64
}

func collect(t *trajectory, workload string) *sample {
	s := &sample{metrics: map[string][]float64{}}
	for _, r := range t.Runs {
		if r.Workload != workload {
			continue
		}
		s.runs++
		if !r.Result.Correct {
			s.incorrect++
		}
		s.attempted += r.Result.Attempted
		s.failed += r.Result.Failed
		for name, m := range r.Result.Metrics {
			s.metrics[name] = append(s.metrics[name], m.Value)
		}
	}
	return s
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// span returns the smallest and largest value of xs.
func span(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// rangeCell renders xs's min-max range for the table.
func rangeCell(xs []float64) string {
	lo, hi := span(xs)
	return fmt.Sprintf("[%.4g, %.4g]", lo, hi)
}

func failShare(s *sample) float64 {
	if s.attempted <= 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// compare prints the per-workload table and reports whether NEW stays
// within every bound.
func compare(w io.Writer, s *spec, old, cur *trajectory) bool {
	ok := true
	for _, wl := range s.Workloads {
		o, c := collect(old, wl.Name), collect(cur, wl.Name)
		fmt.Fprintf(w, "%s: %d old runs, %d new runs\n", wl.Name, o.runs, c.runs)
		if o.runs == 0 || c.runs == 0 {
			fmt.Fprintln(w, "  skipped: no runs on one side")
			continue
		}
		fmt.Fprintf(w, "  %-16s %12s %-23s %12s %-23s %9s %7s  %s\n", "metric", "old median", " old range", "new median", " new range", "delta", "bound", "verdict")
		for _, m := range s.EndToEnd {
			ov, cv := o.metrics[m.Name], c.metrics[m.Name]
			if len(ov) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, "  %-16s missing on one side\n", m.Name)
				ok = false
				continue
			}
			om, cm := median(ov), median(cv)
			delta := (cm - om) / om
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "WORSE"
				ok = false
			}
			note := ""
			if lo, hi := span(ov); verdict == "WORSE" && (hi-lo)/om > m.Bound {
				note = fmt.Sprintf(" (unresolved: old runs span %.0f%%)", 100*(hi-lo)/om)
			}
			fmt.Fprintf(w, "  %-16s %12.6g %-23s %12.6g %-23s %+8.1f%% %6.0f%%  %s (%s)%s\n",
				m.Name, om, " "+rangeCell(ov), cm, " "+rangeCell(cv), 100*delta, 100*m.Bound, verdict, m.Unit, note)
		}
		verdict := "ok"
		if failShare(c) > failShare(o) {
			verdict = "WORSE"
			ok = false
		}
		fmt.Fprintf(w, "  %-16s %12.4g %-23s %12.4g %-23s %9s %7s  %s\n", "failed share", failShare(o), "", failShare(c), "", "", "", verdict)
		if c.incorrect > 0 {
			fmt.Fprintf(w, "  %d new runs not correct\n", c.incorrect)
			ok = false
		}
	}
	return ok
}
