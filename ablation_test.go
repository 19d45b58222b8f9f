package patree

// Ablation benchmarks for the design choices DESIGN.md §7 calls out:
// the probe batch threshold, the yield granularity, and prioritized
// execution. They are not paper figures; they quantify how sensitive the
// reproduction is to its own implementation decisions.

import (
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/harness"
	"github.com/patree/patree/internal/probe"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/workload"
)

func ablationScale() harness.Scale {
	return harness.Scale{
		PreloadKeys: 50_000,
		Warmup:      20 * time.Millisecond,
		Measure:     100 * time.Millisecond,
		Concurrency: 64,
		Seed:        42,
	}
}

func ablationGen(s harness.Scale) *workload.YCSB {
	return workload.NewYCSB(workload.YCSBConfig{
		Keys: uint64(s.PreloadKeys), UpdatePercent: 10, Theta: 0.3, Seed: s.Seed})
}

// BenchmarkAblationProbeBatch sweeps the expected-available threshold
// that gates probing. Batch 1 probes per completion (more driver
// interference, lowest detection delay); large batches probe rarely
// (cheap, but completions wait).
func BenchmarkAblationProbeBatch(b *testing.B) {
	s := ablationScale()
	m, err := probe.Default()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if i > 0 {
			continue
		}
		for _, batch := range []float64{1, 2, 4, 8, 16} {
			p := sched.NewWorkload(m, nil, 20*time.Microsecond)
			p.SetBatch(batch)
			cfg := core.Config{Policy: p, Prioritized: true}
			rs := harness.RunPATree(harness.PAConfig{Scale: s, MkTree: func() core.Config { return cfg }, Gen: ablationGen(s)})
			b.Logf("batch=%2.0f  %7.1f Kops/s  lat=%7.1fus  CPU=%.2f  probes/s=%.0fK",
				batch, rs.Throughput/1e3, float64(rs.MeanLatency)/1e3, rs.CPU,
				float64(rs.Probes)/s.Measure.Seconds()/1e3)
		}
	}
}

// BenchmarkAblationYieldGranularity sweeps the Algorithm 2 yield quantum
// under a moderate open-loop load: small quanta track load closely, large
// quanta save more CPU but delay detection.
func BenchmarkAblationYieldGranularity(b *testing.B) {
	s := ablationScale()
	m, err := probe.Default()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if i > 0 {
			continue
		}
		for _, q := range []time.Duration{0, 10, 20, 50, 100} {
			p := sched.NewWorkload(m, nil, q*time.Microsecond)
			cfg := core.Config{Policy: p, Prioritized: true}
			rs := harness.RunPATree(harness.PAConfig{Scale: s, MkTree: func() core.Config { return cfg },
				Gen: ablationGen(s), ArrivalRate: 50e3})
			b.Logf("yield=%4dus  %7.1f Kops/s  lat=%7.1fus  CPU=%.2f",
				q, rs.Throughput/1e3, float64(rs.MeanLatency)/1e3, rs.CPU)
		}
	}
}

// BenchmarkAblationConcurrency sweeps the closed-loop outstanding-op
// count: PA-Tree needs enough concurrent operations to keep the device's
// internal parallelism busy (the paper's central premise).
func BenchmarkAblationConcurrency(b *testing.B) {
	s := ablationScale()
	for i := 0; i < b.N; i++ {
		if i > 0 {
			continue
		}
		for _, conc := range []int{1, 4, 16, 64, 256} {
			sc := s
			sc.Concurrency = conc
			cfg := core.Config{Prioritized: true}
			rs := harness.RunPATree(harness.PAConfig{Scale: sc, MkTree: func() core.Config { return cfg }, Gen: ablationGen(sc)})
			b.Logf("concurrency=%3d  %7.1f Kops/s  outstandingIO=%.1f  lat=%.0fus",
				conc, rs.Throughput/1e3, rs.Outstanding, float64(rs.MeanLatency)/1e3)
		}
	}
}
