package harness

import (
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/workload"
)

// microScale keeps the end-to-end loader paths fast enough for unit tests.
func microScale() Scale {
	return Scale{
		PreloadKeys: 5_000,
		Warmup:      10 * time.Millisecond,
		Measure:     40 * time.Millisecond,
		Concurrency: 32,
		Seed:        3,
	}
}

// TestFig15BaselinePaths pins RunSync's exact statistics for every
// baseline engine under both persistence modes at microScale, through
// the Fig 15 driver (including the Blink and LSM load-then-flip-persistence
// paths) on the default workload. The baselines share PA-Tree's latch
// table, buffer and cost model, so a change to any of those that moves a
// baseline's schedule fails here; if that is the intent, rerun with
// -update and review the diff of testdata/runsync_golden.json.
func TestFig15BaselinePaths(t *testing.T) {
	s := microScale()
	var got []goldenRun
	for _, kind := range []SyncKind{KindShared, KindDedicated, KindBlink, KindLCB, KindLSM} {
		for _, p := range []core.Persistence{core.StrongPersistence, core.WeakPersistence} {
			rs := RunSync(SyncConfig{
				Scale: s, Kind: kind, Threads: 8,
				Gen:         defaultGen(s, 10, 0.3),
				Persistence: p, CachePages: 512, SyncEvery: 1000,
			})
			if rs.Ops == 0 || rs.MeanLatency <= 0 {
				t.Fatalf("%v/%v: %d ops, mean latency %v", kind, p, rs.Ops, rs.MeanLatency)
			}
			got = append(got, goldenRun{Name: kind.String() + " " + p.String(), Stats: rs})
		}
	}
	checkGolden(t, syncGoldenPath, got)
}

// TestFig15WorkloadGenerators drives PA-Tree over the synthetic T-Drive
// and SSE stand-ins (range-heavy mixes) end to end.
func TestFig15WorkloadGenerators(t *testing.T) {
	s := microScale()
	gens := []workload.Generator{
		workload.NewTDrive(workload.TDriveConfig{PreloadRecords: s.PreloadKeys, Taxis: 200, Seed: s.Seed}),
		workload.NewSSE(workload.SSEConfig{PreloadOrders: s.PreloadKeys, Stocks: 100, Seed: s.Seed}),
	}
	for _, g := range gens {
		rs := RunPATree(PAConfig{
			Scale:  s,
			MkTree: paTree(512, 0),
			Gen:    g,
		})
		if rs.Ops == 0 {
			t.Fatalf("%s: no ops completed", g.Name())
		}
	}
}

// TestWeakBeatsStrongForLogStructured checks Fig 15's persistence split
// where it must appear: the per-update-sync engines.
func TestWeakBeatsStrongForLogStructured(t *testing.T) {
	s := microScale()
	run := func(p core.Persistence) RunStats {
		return RunSync(SyncConfig{Scale: s, Kind: KindLSM, Threads: 8,
			Gen: defaultGen(s, 50, 0.3), Persistence: p, CachePages: 512, SyncEvery: 1000})
	}
	strong := run(core.StrongPersistence)
	weak := run(core.WeakPersistence)
	if weak.Throughput < 1.5*strong.Throughput {
		t.Fatalf("weak LSM %.0f not clearly above strong %.0f (sync-per-write penalty missing)",
			weak.Throughput, strong.Throughput)
	}
}
