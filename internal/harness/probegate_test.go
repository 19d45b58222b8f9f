package harness

import (
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/probe"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/sim"
)

// probeCounter counts the probes its workload-aware policy performs, so a
// run can report which share of them the safety deadline forced.
type probeCounter struct {
	*sched.Workload
	probes uint64
}

func (c *probeCounter) OnProbe(now sim.Time) {
	c.probes++
	c.Workload.OnProbe(now)
}

// TestProbeGateLowDepth pins when the workload-aware probe gate reaps a
// completion at a few commands in flight: the paper's PA-Tree (strong
// persistence, no buffer, 90/10 search/update, Zipf 0.3) closed-loop at
// 1, 4 and 64 outstanding operations on BenchScale. A gate that weighs
// only the model's current rate by the time since the last probe never
// expects a lone read, and the 200 µs safety deadline reaped 1 085 of
// 1 302 probes at depth 1 (mean 993.8 µs; 1 137.1 µs at depth 4). The
// integrated gate with its median-age rule for a lone command reaps
// them at their expected completion, and leaves the saturated queue
// (82.00 Kops/s at depth 64 before) alone.
func TestProbeGateLowDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("three BenchScale runs")
	}
	const depth64Ops = 81_995 // ops/s of the rate-by-elapsed gate
	for _, c := range []struct {
		depth        int
		maxMean      time.Duration // 0 = unbounded
		maxBackstops float64       // share of probes; 0 = unbounded
	}{
		{1, 600 * time.Microsecond, 0.05},
		{4, 650 * time.Microsecond, 0},
		{64, 0, 0},
	} {
		s := BenchScale()
		s.Concurrency = c.depth
		m, err := probe.Default()
		if err != nil {
			t.Fatal(err)
		}
		pc := &probeCounter{Workload: sched.NewWorkload(m, nil, 20*time.Microsecond)}
		rs := RunPATree(PAConfig{Scale: s, Gen: defaultGen(s, 10, 0.3), MkTree: func() core.Config {
			cfg := paTreeConfig(0, core.StrongPersistence)
			cfg.Policy = pc
			return cfg
		}})
		share := float64(pc.Backstops()) / float64(pc.probes)
		t.Logf("depth %d: mean %v, %.0f ops/s, %.2f probes/op, %d of %d probes forced by the backstop",
			c.depth, rs.MeanLatency, rs.Throughput, float64(rs.Probes)/float64(rs.Ops), pc.Backstops(), pc.probes)
		if c.maxMean > 0 && rs.MeanLatency > c.maxMean {
			t.Errorf("depth %d: mean latency %v, want <= %v", c.depth, rs.MeanLatency, c.maxMean)
		}
		if c.maxBackstops > 0 && share > c.maxBackstops {
			t.Errorf("depth %d: the backstop forced %.1f%% of probes, want <= %.0f%%", c.depth, 100*share, 100*c.maxBackstops)
		}
		if c.depth == 64 && (rs.Throughput < 0.99*depth64Ops || rs.Throughput > 1.01*depth64Ops) {
			t.Errorf("depth 64: %.0f ops/s, want within 1%% of %d", rs.Throughput, depth64Ops)
		}
	}
}
