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

// pipelineTraceRun drives one traced, journaled shard through a fixed
// mix of inserts, searches and range scans and returns the Chrome trace.
// pipelined toggles the overlap machinery — scan read-ahead and depth-8
// WAL write pipelining — which by design DOES change the simulated I/O
// schedule; what must hold is that either configuration is same-seed
// reproducible, and that the zero Config is the classic loop.
func pipelineTraceRun(t *testing.T, seed uint64, pipelined bool) []byte {
	t.Helper()
	eng := sim.NewEngine()
	sd := nvme.NewSimDevice(eng, nvme.SimConfig{Seed: seed, NumBlocks: 1 << 13})
	osched := simos.New(eng, simos.Config{})
	meta, err := core.Format(sd)
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	tracer := core.NewTracer(1 << 15)
	cfg := core.Config{
		Persistence: core.StrongPersistence,
		BufferPages: 8, // tiny: scans miss, so read-ahead has work
		Journal:     true,
		Tracer:      tracer,
	}
	cfg.Pipelined = pipelined
	var tree *core.Tree
	th := osched.Spawn("patree", func(*simos.Thread) { tree.Run() })
	tree, err = core.New(sd, cfg, core.SimEnv{T: th}, meta)
	if err != nil {
		t.Fatalf("new tree: %v", err)
	}

	rng := sim.NewRNG(seed ^ 0x919e)
	resolved := 0
	done := func(*core.Op) { resolved++ }
	// run admits one batch of n ops and steps until all have completed.
	run := func(n int, next func() *core.Op) {
		resolved = 0
		eng.After(0, func() {
			for i := 0; i < n; i++ {
				tree.Admit(next())
			}
		})
		for resolved < n {
			if !eng.Step() {
				t.Fatalf("seed %d pipelined=%v: run wedged at %d/%d", seed, pipelined, resolved, n)
			}
		}
	}
	// Grow the tree first, so the mix's scans meet leaves the buffer
	// cannot hold.
	run(300, func() *core.Op {
		key := 1 + rng.Uint64n(256)
		return core.NewInsert(key, []byte(fmt.Sprintf("v%d", key)), done)
	})
	run(400, func() *core.Op {
		key := 1 + rng.Uint64n(256)
		switch r := rng.Intn(100); {
		case r < 50:
			return core.NewInsert(key, []byte(fmt.Sprintf("v%d", key)), done)
		case r < 80:
			return core.NewSearch(key, done)
		default:
			return core.NewRange(key, key+64, 0, done)
		}
	})
	st := tree.StatsSnapshot()
	if pipelined && st.ReadAheads == 0 {
		t.Fatalf("seed %d: pipelined run read nothing ahead — the workload no longer exercises the feature", seed)
	}
	if !pipelined && (st.ReadAheads != 0 || st.ReadAheadHits != 0) {
		t.Fatalf("seed %d: read-ahead counters moved with the feature off: %+v", seed, st)
	}
	tree.Stop()
	eng.RunFor(time.Second)

	events := tracer.Events()
	if len(events) == 0 {
		t.Fatalf("seed %d: no trace events", seed)
	}
	var buf bytes.Buffer
	if err := tracer.WriteChromeJSONProcs(&buf, []trace.Process{{Name: "patree", Events: events}}); err != nil {
		t.Fatalf("seed %d: write trace: %v", seed, err)
	}
	return buf.Bytes()
}

// TestPipelinedOffTraceDeterminism is the determinism regression for
// the overlap machinery (ISSUE 10): the zero Config is the classic
// loop — WithDefaults must not switch Pipelined on, a default run must
// read nothing ahead (checked in pipelineTraceRun), and its trace
// must be same-seed reproducible. If this breaks, every pinned simulated
// experiment is suspect.
func TestPipelinedOffTraceDeterminism(t *testing.T) {
	if (core.Config{}).WithDefaults().Pipelined {
		t.Fatal("WithDefaults must not switch Pipelined on")
	}
	const seed = 42
	def := pipelineTraceRun(t, seed, false)
	def2 := pipelineTraceRun(t, seed, false)
	if !bytes.Equal(def, def2) {
		t.Fatalf("seed %d: same-seed default runs diverged (%d vs %d bytes)", seed, len(def), len(def2))
	}
}

// TestPipelinedOnTraceRepeatable pins that the pipelined configuration
// is itself deterministic: read-ahead and WAL pipelining reshape the
// I/O schedule, but the same seed must reshape it identically every
// time — stress reproductions and the figpipeline experiment depend on
// it.
func TestPipelinedOnTraceRepeatable(t *testing.T) {
	const seed = 77
	on1 := pipelineTraceRun(t, seed, true)
	on2 := pipelineTraceRun(t, seed, true)
	if !bytes.Equal(on1, on2) {
		t.Fatalf("seed %d: same-seed pipelined runs diverged (%d vs %d bytes)", seed, len(on1), len(on2))
	}
}
