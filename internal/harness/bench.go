package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// BenchEntry is one measurement in the github-action-benchmark "custom
// JSON" format: a BENCH_*.json file is a flat array of these, so a
// sweep's throughput and latencies chart as a trajectory across commits.
type BenchEntry struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Extra string  `json:"extra,omitempty"`
}

// WriteBench writes entries as a BENCH_*.json file.
func WriteBench(path string, entries []BenchEntry) error {
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBench loads a BENCH_*.json file.
func ReadBench(path string) ([]BenchEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []BenchEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	return entries, nil
}

// biggerIsBetter reports the improvement direction of a metric by name:
// throughput counts up, everything else (latencies) counts down.
func biggerIsBetter(name string) bool {
	return strings.Contains(name, "throughput") || strings.Contains(name, "ops")
}

// Compare checks current against baseline and returns one human-readable
// line per regression beyond tolerance (e.g. 0.15 = 15%). Metrics
// missing from either side are skipped — the trajectory may legitimately
// gain or lose series across commits. "max" series are charted but
// never gated: the single worst sample is an extreme-value statistic
// with run-to-run variance far beyond any useful tolerance.
func Compare(current, baseline []BenchEntry, tolerance float64) []string {
	base := make(map[string]BenchEntry, len(baseline))
	for _, e := range baseline {
		base[e.Name] = e
	}
	var regressions []string
	for _, cur := range current {
		b, ok := base[cur.Name]
		if !ok || b.Value == 0 || strings.HasSuffix(cur.Name, "/max") {
			continue
		}
		if biggerIsBetter(cur.Name) {
			if cur.Value < b.Value*(1-tolerance) {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.1f %s vs baseline %.1f %s (-%.1f%%, tolerance %.0f%%)",
						cur.Name, cur.Value, cur.Unit, b.Value, b.Unit,
						100*(1-cur.Value/b.Value), 100*tolerance))
			}
		} else if cur.Value > b.Value*(1+tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f %s vs baseline %.1f %s (+%.1f%%, tolerance %.0f%%)",
					cur.Name, cur.Value, cur.Unit, b.Value, b.Unit,
					100*(cur.Value/b.Value-1), 100*tolerance))
		}
	}
	return regressions
}
