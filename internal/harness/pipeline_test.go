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
// mixed workload and returns the Chrome trace. pipelined toggles the
// overlap machinery — speculative child prefetch and depth-8 WAL write
// pipelining — which by design DOES change the simulated I/O schedule;
// what must hold is that either configuration is same-seed
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
		BufferPages: 32, // tiny: point ops miss, so prefetch has work
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
	const total = 400
	resolved := 0
	eng.After(0, func() {
		for i := 0; i < total; i++ {
			key := 1 + rng.Uint64n(256)
			var op *core.Op
			if rng.Intn(100) < 60 {
				op = core.NewInsert(key, []byte(fmt.Sprintf("v%d", key)), func(*core.Op) { resolved++ })
			} else {
				op = core.NewSearch(key, func(*core.Op) { resolved++ })
			}
			tree.Admit(op)
		}
	})
	for resolved < total {
		if !eng.Step() {
			t.Fatalf("seed %d pipelined=%v: run wedged at %d/%d", seed, pipelined, resolved, total)
		}
	}
	st := tree.StatsSnapshot()
	if pipelined && st.SpecIssued == 0 {
		t.Fatalf("seed %d: pipelined run issued no speculative reads — the workload no longer exercises the feature", seed)
	}
	if !pipelined && (st.SpecIssued != 0 || st.SpecHits != 0 || st.SpecCancelled != 0 || st.SpecWasted != 0) {
		t.Fatalf("seed %d: speculation counters moved with the feature off: %+v", seed, st)
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
// issue no speculative read (checked in pipelineTraceRun), and its trace
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
// is itself deterministic: speculation and WAL pipelining reshape the
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
