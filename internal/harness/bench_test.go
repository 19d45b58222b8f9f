package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchRoundTrip pins the github-action-benchmark JSON shape and
// the Write/Read round trip.
func TestBenchRoundTrip(t *testing.T) {
	entries := []BenchEntry{
		{Name: "multidev/8x2/throughput", Unit: "ops/s", Value: 609_000, Extra: "8 shards on 2 devices"},
		{Name: "multidev/8x2/mean", Unit: "us", Value: 104.5},
		{Name: "multidev/8x2/p99", Unit: "us", Value: 310},
	}
	path := filepath.Join(t.TempDir(), "out", "bench.json")
	if err := WriteBench(path, entries); err != nil {
		t.Fatal(err)
	}
	// The file must be plain github-action-benchmark customSmallerIsBetter
	// style JSON: a top-level array of {name, unit, value}.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var generic []map[string]any
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatalf("not a JSON array of objects: %v", err)
	}
	for i, obj := range generic {
		for _, field := range []string{"name", "unit", "value"} {
			if _, ok := obj[field]; !ok {
				t.Fatalf("entry %d lacks %q: %v", i, field, obj)
			}
		}
	}
	if _, ok := generic[1]["extra"]; ok {
		t.Fatalf("empty Extra must be omitted: %v", generic[1])
	}
	back, err := ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("round trip lost entries: %d != %d", len(back), len(entries))
	}
	for i := range back {
		if back[i] != entries[i] {
			t.Fatalf("entry %d mismatch: %+v != %+v", i, back[i], entries[i])
		}
	}
}

// TestCompareDirections pins the regression directions: lower
// throughput is a regression, higher latency is a regression, both
// within tolerance pass, and metrics missing from the baseline are
// skipped rather than failed.
func TestCompareDirections(t *testing.T) {
	base := []BenchEntry{
		{Name: "serving/throughput", Unit: "ops/s", Value: 100_000},
		{Name: "serving/p99", Unit: "us", Value: 10_000},
		{Name: "serving/max", Unit: "us", Value: 50_000},
		{Name: "pipeline/mix/speedup_ops", Unit: "x", Value: 11.4},
	}
	cases := []struct {
		name    string
		current []BenchEntry
		regress bool
	}{
		{"throughput drop beyond tolerance", []BenchEntry{{Name: "serving/throughput", Unit: "ops/s", Value: 80_000}}, true},
		{"throughput drop within tolerance", []BenchEntry{{Name: "serving/throughput", Unit: "ops/s", Value: 90_000}}, false},
		{"throughput gain", []BenchEntry{{Name: "serving/throughput", Unit: "ops/s", Value: 140_000}}, false},
		{"p99 inflation beyond tolerance", []BenchEntry{{Name: "serving/p99", Unit: "us", Value: 12_000}}, true},
		{"p99 inflation within tolerance", []BenchEntry{{Name: "serving/p99", Unit: "us", Value: 11_000}}, false},
		{"p99 improvement", []BenchEntry{{Name: "serving/p99", Unit: "us", Value: 2_000}}, false},
		{"metric not in baseline", []BenchEntry{{Name: "serving/p50", Unit: "us", Value: 1}}, false},
		{"max is charted but never gated", []BenchEntry{{Name: "serving/max", Unit: "us", Value: 900_000}}, false},
		{"speedup counts up", []BenchEntry{{Name: "pipeline/mix/speedup_ops", Unit: "x", Value: 5}}, true},
	}
	for _, tc := range cases {
		regressions := Compare(tc.current, base, 0.15)
		if got := len(regressions) > 0; got != tc.regress {
			t.Errorf("%s: regressions = %v, want regress=%v", tc.name, regressions, tc.regress)
		}
	}
}
