package harness

import (
	"testing"

	"github.com/patree/patree/internal/core"
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
