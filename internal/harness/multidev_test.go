package harness

import (
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/workload"
)

// mdTree is the shard config every multi-device test uses.
var mdTree = paTree(0, core.StrongPersistence)

func TestRunMultiDeviceProducesStats(t *testing.T) {
	s := tinyScale()
	rs := RunPATree(PAConfig{
		Scale:   s,
		Shards:  4,
		Devices: 2,
		MkTree:  mdTree,
		Gen:     defaultGen(s, 10, 0.3),
	})
	if rs.Ops == 0 || rs.Throughput <= 0 {
		t.Fatalf("no ops measured: %+v", rs)
	}
	if rs.MeanLatency <= 0 || rs.CPU <= 0 || rs.IOPS <= 0 {
		t.Fatalf("stats incomplete: %+v", rs)
	}
	if rs.Label != "PA-Tree x4/2dev" {
		t.Fatalf("label = %q", rs.Label)
	}
	if len(rs.ShardQueueP99) != 4 {
		t.Fatalf("shard queue p99s = %v", rs.ShardQueueP99)
	}
	for i, p := range rs.ShardQueueP99 {
		if p <= 0 {
			t.Fatalf("shard %d queue-wait p99 not measured: %v", i, rs.ShardQueueP99)
		}
	}
}

// TestMultiDevUniformWeightingByteIdentical is the weighting-off
// regression: the governor only imposes a window on a shard whose
// queue-wait EWMA is both above an absolute floor and a multiple of
// every other shard's, so under uniform traffic it never intervenes and
// a weighted run must reproduce the unweighted schedule exactly.
func TestMultiDevUniformWeightingByteIdentical(t *testing.T) {
	s := tinyScale()
	run := func(weighting bool) RunStats {
		return RunPATree(PAConfig{
			Scale:     s,
			Shards:    4,
			Devices:   2,
			MkTree:    mdTree,
			Gen:       defaultGen(s, 10, 0.3),
			Weighting: weighting,
		})
	}
	off := run(false)
	on := run(true)
	if on.Throttled != 0 {
		t.Fatalf("uniform traffic throttled %d admissions — the governor must stay unthrottled until a shard runs hot", on.Throttled)
	}
	if off.Ops != on.Ops || off.Throughput != on.Throughput {
		t.Errorf("throughput diverged: off=%v (%d ops) on=%v (%d ops)", off.Throughput, off.Ops, on.Throughput, on.Ops)
	}
	if off.MeanLatency != on.MeanLatency || off.P99Latency != on.P99Latency {
		t.Errorf("latency diverged: off mean=%v p99=%v, on mean=%v p99=%v",
			off.MeanLatency, off.P99Latency, on.MeanLatency, on.P99Latency)
	}
	if off.Probes != on.Probes || off.IOPS != on.IOPS {
		t.Errorf("engine activity diverged: off probes=%d iops=%v, on probes=%d iops=%v",
			off.Probes, off.IOPS, on.Probes, on.IOPS)
	}
	for i := range off.ShardQueueP99 {
		if off.ShardQueueP99[i] != on.ShardQueueP99[i] {
			t.Errorf("shard %d queue-wait p99 diverged: off=%v on=%v", i, off.ShardQueueP99[i], on.ShardQueueP99[i])
		}
	}
}

// hotShardGen skews a base generator's op stream: with probability
// hotPct% the op's key is remapped (deterministically) onto a key owned
// by shard 0, concentrating that fraction of the traffic on one shard
// while the rest stays at the base distribution.
type hotShardGen struct {
	base    workload.Generator
	rng     *sim.RNG
	hotKeys []uint64
	hotPct  int
}

func newHotShardGen(base workload.Generator, shards, hotPct int, keys uint64, seed uint64) *hotShardGen {
	g := &hotShardGen{base: base, rng: sim.NewRNG(seed ^ 0x407), hotPct: hotPct}
	for k := uint64(1); k <= keys && len(g.hotKeys) < 4096; k++ {
		if core.ShardOf(k, shards) == 0 {
			g.hotKeys = append(g.hotKeys, k)
		}
	}
	if len(g.hotKeys) == 0 {
		panic("harness: no keys owned by shard 0")
	}
	return g
}

func (g *hotShardGen) Name() string       { return g.base.Name() + "+hot0" }
func (g *hotShardGen) Preload() []core.KV { return g.base.Preload() }
func (g *hotShardGen) Next() workload.Op {
	w := g.base.Next()
	if int(g.rng.Uint64n(100)) < g.hotPct {
		w.Key = g.hotKeys[g.rng.Uint64n(uint64(len(g.hotKeys)))]
	}
	return w
}

// TestMultiDevSkewBattery drives Zipf-plus-hot-shard mixes at several
// skew levels and asserts the two properties the admission governor
// exists for: (1) with weighting on, the hot shard's p99 queue-wait
// stays within a bounded factor of the cold shards' mean — excess
// waiting moves out of the engine into driver-side parking; (2) the
// governor actually engaged (parked admissions) under real skew.
func TestMultiDevSkewBattery(t *testing.T) {
	s := tinyScale()
	cases := []struct {
		name    string
		hotPct  int
		theta   float64
		shards  int
		devices int
		// maxHotColdRatio bounds hot-shard p99 queue-wait over the cold
		// shards' mean p99 with weighting on.
		maxHotColdRatio float64
	}{
		{name: "zipf-mild-hot50", hotPct: 50, theta: 0.3, shards: 4, devices: 2, maxHotColdRatio: 48},
		{name: "zipf-strong-hot80", hotPct: 80, theta: 0.6, shards: 4, devices: 2, maxHotColdRatio: 24},
		{name: "eight-shards-hot60", hotPct: 60, theta: 0.3, shards: 8, devices: 4, maxHotColdRatio: 64},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(weighting bool) RunStats {
				gen := newHotShardGen(defaultGen(s, 10, tc.theta), tc.shards, tc.hotPct,
					uint64(s.PreloadKeys), s.Seed)
				return RunPATree(PAConfig{
					Scale:     s,
					Shards:    tc.shards,
					Devices:   tc.devices,
					MkTree:    mdTree,
					Gen:       gen,
					Device:    nvme.SimConfig{Parallelism: 64},
					Weighting: weighting,
				})
			}
			on := run(true)
			off := run(false)

			if on.Throttled == 0 {
				t.Fatalf("%d%% hot traffic never engaged the governor", tc.hotPct)
			}
			hot := on.ShardQueueP99[0]
			var cold time.Duration
			for _, p := range on.ShardQueueP99[1:] {
				cold += p
			}
			cold /= time.Duration(tc.shards - 1)
			if cold <= 0 {
				t.Fatalf("cold shards measured no queue wait: %v", on.ShardQueueP99)
			}
			ratio := float64(hot) / float64(cold)
			if ratio > tc.maxHotColdRatio {
				t.Errorf("weighted hot-shard p99 queue-wait %v is %.1fx the cold mean %v (bound %.0fx)",
					hot, ratio, cold, tc.maxHotColdRatio)
			}
			// Relative wins over the unthrottled run: weighting must cut
			// the hot shard's in-engine p99 queue-wait materially, shrink
			// the hot/cold spread, and never cost throughput — parked
			// waiting replaces in-engine waiting, it doesn't add to it.
			hotOff := off.ShardQueueP99[0]
			if float64(hot) > 0.8*float64(hotOff) {
				t.Errorf("weighting barely moved hot-shard p99 queue-wait: on=%v off=%v", hot, hotOff)
			}
			var coldOff time.Duration
			for _, p := range off.ShardQueueP99[1:] {
				coldOff += p
			}
			coldOff /= time.Duration(tc.shards - 1)
			if ratioOff := float64(hotOff) / float64(coldOff); ratio >= ratioOff {
				t.Errorf("weighting did not shrink the hot/cold queue-wait spread: on=%.1fx off=%.1fx", ratio, ratioOff)
			}
			if on.Throughput < 0.95*off.Throughput {
				t.Errorf("weighting cost throughput: on=%.0f off=%.0f ops/s", on.Throughput, off.Throughput)
			}
		})
	}
}
