package harness

import (
	"testing"
	"time"

	"github.com/patree/patree/internal/baseline/syncbtree"
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

// TestFig15BaselinePaths exercises every baseline engine through the
// Fig 15 driver (including the Blink and LSM load-then-flip-persistence
// paths) on the default workload.
func TestFig15BaselinePaths(t *testing.T) {
	s := microScale()
	for _, kind := range []SyncKind{KindBlink, KindLCB, KindLSM} {
		for _, p := range []syncbtree.Persistence{syncbtree.Strong, syncbtree.Weak} {
			rs := RunSync(SyncConfig{
				Scale: s, Kind: kind, Threads: 8,
				Gen:         defaultGen(s, 10, 0.3),
				Persistence: p, CachePages: 512, SyncEvery: 1000,
			})
			if rs.Ops == 0 {
				t.Fatalf("%v/%v: no ops completed", kind, p)
			}
			if rs.MeanLatency <= 0 {
				t.Fatalf("%v/%v: no latency recorded", kind, p)
			}
		}
	}
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
	run := func(p syncbtree.Persistence) RunStats {
		return RunSync(SyncConfig{Scale: s, Kind: KindLSM, Threads: 8,
			Gen: defaultGen(s, 50, 0.3), Persistence: p, CachePages: 512, SyncEvery: 1000})
	}
	strong := run(syncbtree.Strong)
	weak := run(syncbtree.Weak)
	if weak.Throughput < 1.5*strong.Throughput {
		t.Fatalf("weak LSM %.0f not clearly above strong %.0f (sync-per-write penalty missing)",
			weak.Throughput, strong.Throughput)
	}
}
