package harness

import (
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
)

// tinyScale keeps harness unit tests fast; the benches and cmd/paexp use
// the larger scales.
func tinyScale() Scale {
	return Scale{
		PreloadKeys: 20_000,
		Warmup:      20 * time.Millisecond,
		Measure:     80 * time.Millisecond,
		Threads:     []int{1, 32},
		Concurrency: 64,
		Seed:        7,
	}
}

func TestRunPATreeProducesStats(t *testing.T) {
	s := tinyScale()
	rs := RunPATree(PAConfig{Scale: s, MkTree: paTree(0, core.StrongPersistence),
		Gen: defaultGen(s, 10, 0.3)})
	if rs.Ops == 0 || rs.Throughput <= 0 {
		t.Fatalf("no ops measured: %+v", rs)
	}
	if rs.MeanLatency <= 0 || rs.CPU <= 0 || rs.IOPS <= 0 {
		t.Fatalf("stats incomplete: %+v", rs)
	}
	// Single-threaded PA-Tree: at most ~1 core busy, few context switches.
	if rs.CPU > 1.3 {
		t.Fatalf("PA-Tree CPU = %v cores", rs.CPU)
	}
	if rs.CtxSwitches > 5000 {
		t.Fatalf("PA-Tree context switches = %d", rs.CtxSwitches)
	}
	if rs.Outstanding < 4 {
		t.Fatalf("avg outstanding I/Os = %v; asynchrony not working", rs.Outstanding)
	}
}

func TestRunSyncProducesStats(t *testing.T) {
	s := tinyScale()
	for _, kind := range []SyncKind{KindDedicated, KindShared} {
		rs := RunSync(SyncConfig{Scale: s, Kind: kind, Threads: 8, Gen: defaultGen(s, 10, 0.3)})
		if rs.Ops == 0 {
			t.Fatalf("%v: no ops", kind)
		}
		if rs.CtxSwitches == 0 {
			t.Fatalf("%v: no context switches in a blocking design", kind)
		}
	}
}

// TestHeadlineClaim is the paper's core result at miniature scale:
// single-threaded PA-Tree beats the multi-threaded sync baselines.
func TestHeadlineClaim(t *testing.T) {
	s := tinyScale()
	pa := RunPATree(PAConfig{Scale: s, MkTree: paTree(0, core.StrongPersistence),
		Gen: defaultGen(s, 10, 0.3)})
	ded := RunSync(SyncConfig{Scale: s, Kind: KindDedicated, Threads: 32, Gen: defaultGen(s, 10, 0.3)})
	sh := RunSync(SyncConfig{Scale: s, Kind: KindShared, Threads: 32, Gen: defaultGen(s, 10, 0.3)})
	if pa.Throughput < 2*ded.Throughput {
		t.Fatalf("PA-Tree %.0f ops/s not clearly above dedicated(32) %.0f", pa.Throughput, ded.Throughput)
	}
	if pa.Throughput < 2*sh.Throughput {
		t.Fatalf("PA-Tree %.0f ops/s not clearly above shared(32) %.0f", pa.Throughput, sh.Throughput)
	}
	// CPU efficiency: PA-Tree at least 5x fewer cycles/op than baselines.
	if pa.CyclesPerOp*5 > ded.CyclesPerOp {
		t.Fatalf("cycles/op: PA=%v dedicated=%v", pa.CyclesPerOp, ded.CyclesPerOp)
	}
	// Context switches orders of magnitude apart.
	if pa.CtxSwitches*10 > ded.CtxSwitches {
		t.Fatalf("ctx switches: PA=%d dedicated=%d", pa.CtxSwitches, ded.CtxSwitches)
	}
}

func TestFig3Shapes(t *testing.T) {
	s := tinyScale()
	r := Fig3a(s)
	if r.Table == nil || len(r.Table.String()) == 0 {
		t.Fatal("empty fig3a")
	}
	// Spot-check the shape directly.
	iops1, _ := rawDeviceRun(1, 1, 0, 20*time.Microsecond, 100*time.Millisecond)
	iops64, _ := rawDeviceRun(1, 64, 0, 20*time.Microsecond, 100*time.Millisecond)
	if iops64 < 8*iops1 {
		t.Fatalf("QD64 %.0f not >> QD1 %.0f", iops64, iops1)
	}
}

func TestFig13YieldSavesCPU(t *testing.T) {
	s := tinyScale()
	cfgY := paTreeConfig(0, core.StrongPersistence)
	cfgY.Policy = workloadAware(20 * time.Microsecond)
	y := RunPATree(PAConfig{Scale: s, MkTree: func() core.Config { return cfgY },
		Gen: defaultGen(s, 10, 0.3), ArrivalRate: 25e3})
	cfgN := paTreeConfig(0, core.StrongPersistence)
	cfgN.Policy = workloadAware(0)
	n := RunPATree(PAConfig{Scale: s, MkTree: func() core.Config { return cfgN },
		Gen: defaultGen(s, 10, 0.3), ArrivalRate: 25e3})
	if n.CPU < 0.7 {
		t.Fatalf("no-yield CPU = %v, want busy-poll waste", n.CPU)
	}
	if y.CPU > 0.6*n.CPU {
		t.Fatalf("yielding CPU %v not clearly below no-yield %v", y.CPU, n.CPU)
	}
	// Throughput must not collapse (both should complete ~the offered load).
	if y.Throughput < 0.8*n.Throughput {
		t.Fatalf("yielding hurt throughput: %v vs %v", y.Throughput, n.Throughput)
	}
}

func TestFig14BufferingHelps(t *testing.T) {
	s := tinyScale()
	none := RunPATree(PAConfig{Scale: s, MkTree: paTree(0, core.StrongPersistence),
		Gen: defaultGen(s, 10, 0.3)})
	buffered := RunPATree(PAConfig{Scale: s, MkTree: paTree(s.PreloadKeys/17/5, core.StrongPersistence),
		Gen: defaultGen(s, 10, 0.3)})
	if buffered.Throughput < 1.2*none.Throughput {
		t.Fatalf("buffering did not help: %.0f vs %.0f", buffered.Throughput, none.Throughput)
	}
}

func TestReportRendering(t *testing.T) {
	s := tinyScale()
	r := Fig3c(s)
	out := r.String()
	if len(out) < 50 || r.ID != "fig3c" {
		t.Fatalf("report: %q", out)
	}
}
