package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/trace"
)

func TestRunShardedPATreeProducesStats(t *testing.T) {
	s := tinyScale()
	rs := RunPATree(PAConfig{
		Scale:  s,
		Shards: 4,
		MkTree: paTree(0, core.StrongPersistence),
		Gen:    defaultGen(s, 10, 0.3),
	})
	if rs.Ops == 0 || rs.Throughput <= 0 {
		t.Fatalf("no ops measured: %+v", rs)
	}
	if rs.MeanLatency <= 0 || rs.CPU <= 0 || rs.IOPS <= 0 {
		t.Fatalf("stats incomplete: %+v", rs)
	}
	if rs.Label != "PA-Tree x4" {
		t.Fatalf("label = %q", rs.Label)
	}
	// Four single-threaded workers: more than one core busy, at most ~4.
	if rs.CPU < 1.0 || rs.CPU > 4.5 {
		t.Fatalf("4-shard CPU = %v cores", rs.CPU)
	}
}

// shardedTraceRun drives two traced shards over partitions of one
// simulated device through a fixed workload and returns the combined
// multi-process Chrome trace. Called twice with the same seed it must
// produce byte-identical output — the property the simulated experiments
// (and every stress reproduction) rely on. concReads toggles
// Config.ConcurrentReads: publication is pure observation (no virtual
// CPU), so it must not change the trace either.
func shardedTraceRun(t *testing.T, seed uint64, concReads bool) []byte {
	t.Helper()
	const shards = 2
	const blocksPer = 1 << 12
	eng := sim.NewEngine()
	sd := nvme.NewSimDevice(eng, nvme.SimConfig{Seed: seed, NumBlocks: shards * blocksPer})
	osched := simos.New(eng, simos.Config{})
	trees := make([]*core.Tree, shards)
	tracers := make([]*trace.Tracer, shards)
	for i := 0; i < shards; i++ {
		part, err := nvme.NewPartition(sd, uint64(i)*blocksPer, blocksPer)
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		meta, err := core.FormatShard(part, uint16(i), shards)
		if err != nil {
			t.Fatalf("format shard %d: %v", i, err)
		}
		tracers[i] = core.NewTracer(1 << 14)
		i := i
		th := osched.Spawn(fmt.Sprintf("patree-shard%d", i), func(*simos.Thread) { trees[i].Run() })
		trees[i], err = core.New(part, core.Config{
			Persistence:     core.StrongPersistence,
			BufferPages:     32,
			Tracer:          tracers[i],
			ConcurrentReads: concReads,
		}, core.SimEnv{T: th}, meta)
		if err != nil {
			t.Fatalf("new tree %d: %v", i, err)
		}
	}

	rng := sim.NewRNG(seed ^ 0x7ace)
	const total = 400
	resolved := 0
	admit := func() {
		key := 1 + rng.Uint64n(256)
		var op *core.Op
		if rng.Intn(100) < 60 {
			op = core.NewInsert(key, []byte(fmt.Sprintf("v%d", key)), func(*core.Op) { resolved++ })
		} else {
			op = core.NewSearch(key, func(*core.Op) { resolved++ })
		}
		trees[core.ShardOf(key, shards)].Admit(op)
	}
	eng.After(0, func() {
		for i := 0; i < total; i++ {
			admit()
		}
	})
	for resolved < total {
		if !eng.Step() {
			t.Fatalf("seed %d: trace run wedged at %d/%d", seed, resolved, total)
		}
	}
	for _, tr := range trees {
		tr.Stop()
	}
	eng.RunFor(time.Second)

	procs := make([]trace.Process, shards)
	for i, tc := range tracers {
		procs[i] = trace.Process{Name: fmt.Sprintf("patree-shard%d", i), Events: tc.Events()}
		if len(procs[i].Events) == 0 {
			t.Fatalf("seed %d: shard %d emitted no trace events", seed, i)
		}
	}
	var buf bytes.Buffer
	if err := tracers[0].WriteChromeJSONProcs(&buf, procs); err != nil {
		t.Fatalf("seed %d: write trace: %v", seed, err)
	}
	return buf.Bytes()
}

// TestShardedTraceDeterminism asserts that two same-seed simulated runs
// over N>1 shards export byte-identical multi-process traces.
func TestShardedTraceDeterminism(t *testing.T) {
	const seed = 1337
	t1 := shardedTraceRun(t, seed, false)
	t2 := shardedTraceRun(t, seed, false)
	if !bytes.Equal(t1, t2) {
		t.Fatalf("seed %d: sharded traces diverged between runs (%d vs %d bytes)", seed, len(t1), len(t2))
	}
	for _, want := range []string{`"patree-shard0"`, `"patree-shard1"`, `"process_name"`, `"thread_name"`} {
		if !bytes.Contains(t1, []byte(want)) {
			t.Fatalf("trace missing %s", want)
		}
	}
}

// TestShardedTraceConcurrentReadsDeterminism is the determinism
// regression for the optimistic-reader feature: ConcurrentReads defaults
// to off, and even when on — with no reader goroutines attached, as in
// every simulated experiment — publication charges no virtual CPU, so a
// same-seed run must export a byte-identical trace with the flag on or
// off. If this breaks, the published-page table has started perturbing
// simulated schedules and every pinned experiment is suspect.
func TestShardedTraceConcurrentReadsDeterminism(t *testing.T) {
	if (core.Config{}).ConcurrentReads {
		t.Fatalf("ConcurrentReads must default to off")
	}
	if (core.Config{}).WithDefaults().ConcurrentReads {
		t.Fatalf("WithDefaults must not switch ConcurrentReads on")
	}
	const seed = 99
	off := shardedTraceRun(t, seed, false)
	on := shardedTraceRun(t, seed, true)
	if !bytes.Equal(off, on) {
		t.Fatalf("seed %d: enabling ConcurrentReads changed the simulated trace (%d vs %d bytes) — publication must stay schedule-invisible", seed, len(off), len(on))
	}
	off2 := shardedTraceRun(t, seed, false)
	if !bytes.Equal(off, off2) {
		t.Fatalf("seed %d: same-seed ConcurrentReads:false runs diverged (%d vs %d bytes)", seed, len(off), len(off2))
	}
}
