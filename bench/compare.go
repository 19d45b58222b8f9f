package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// simBounds tighten the bounds on sim-* workloads: their virtual-time
// metrics are exact for a seed, and from one seed to another they move by
// about 0.1 % (rates, CPU, amplification) or 2 % (unloaded latency), so a
// far smaller change than on the wall clock is a real one.
// (BENCHMARK.json has one bound per metric; host-side metrics keep it.)
var simBounds = map[string]float64{
	"ops_per_s": 0.01, "lat_p50_us": 0.05, "cpu_us_per_op": 0.01,
	"dev_ios_per_op": 0.001, "write_amp": 0.001, "space_amp": 0.001,
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// series collects one workload × metric over a file's runs.
func (f *resultFile) series(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if w := r.Workloads[workload]; w != nil && w.EndToEnd != nil {
			if m, ok := w.EndToEnd.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a share
// of the median (the method of statistics.quantiles(n=4), exclusive);
// 0 when there are too few runs to tell.
func spread(v []float64) float64 {
	n := len(v)
	med := medianOf(v)
	if n < 4 || med == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			return c[0]
		}
		if j >= n {
			return c[n-1]
		}
		return c[j-1] + (pos-float64(j))*(c[j]-c[j-1])
	}
	s := (q(3) - q(1)) / med
	if s < 0 {
		s = -s
	}
	return s
}

// compareFiles prints one row per workload × end-to-end metric, b judged
// against a, and fails if any got worse by more than its bound.
func compareFiles(specPath, aPath, bPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadResults(aPath)
	if err != nil {
		return err
	}
	b, err := loadResults(bPath)
	if err != nil {
		return err
	}
	ha, _ := json.Marshal(a.Header)
	hb, _ := json.Marshal(b.Header)
	fmt.Printf("# a: %s (%d runs)\n# b: %s (%d runs)\n", ha, len(a.Runs), hb, len(b.Runs))
	fmt.Printf("%-20s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	worse := 0
	for _, sp := range specs {
		for _, m := range bs.EndToEnd {
			va, vb := a.series(sp.name, m.Name), b.series(sp.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-20s %-16s %14s %14s %8s %7s  missing\n", sp.name, m.Name, "-", "-", "-", "-")
				worse++
				continue
			}
			bound := m.Bound
			if sb, ok := simBounds[m.Name]; ok && strings.HasPrefix(sp.name, "sim-") {
				bound = sb
			}
			ma, mb := medianOf(va), medianOf(vb)
			// change > 0 means b is worse, whichever way the metric points.
			change := (mb - ma) / ma
			if m.Better == "higher" {
				change = -change
			}
			verdict := "unchanged"
			switch {
			case spread(va) > bound || spread(vb) > bound:
				verdict = "unresolved"
			case change > bound:
				verdict = "worse"
				worse++
			case change < -bound:
				verdict = "better"
			}
			fmt.Printf("%-20s %-16s %14.6g %14.6g %+7.2f%% %6.1f%%  %s\n", sp.name, m.Name, ma, mb, 100*change, 100*bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pairs got worse by more than their bound", worse)
	}
	return nil
}
