package harness

import (
	"testing"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
)

func readHeavyRun(t *testing.T, shards int, conc bool) RunStats {
	t.Helper()
	s := tinyScale()
	return RunPATree(PAConfig{
		Scale:  s,
		Shards: shards,
		MkTree: func() core.Config {
			cfg := paTreeConfig(s.PreloadKeys/12, core.StrongPersistence)
			cfg.ConcurrentReads = conc
			return cfg
		},
		Gen:    defaultGen(s, 5, 0.3),
		Device: nvme.SimConfig{Parallelism: 256},
	})
}

// TestReadHeavySpeedup is the acceptance gate for the optimistic
// concurrent-read path: on the 95/5 read-heavy mix with the index
// buffered, turning ConcurrentReads on must at least double per-shard
// throughput over the pipeline-only control, because served lookups cost
// the client ~2µs instead of a worker round-trip.
func TestReadHeavySpeedup(t *testing.T) {
	for _, shards := range []int{1, 2} {
		off := readHeavyRun(t, shards, false)
		on := readHeavyRun(t, shards, true)
		t.Logf("shards=%d off=%.0f ops/s on=%.0f ops/s served=%d fallback=%d",
			shards, off.Throughput, on.Throughput, on.ReaderServed, on.ReaderFallback)
		if off.Ops == 0 || on.Ops == 0 {
			t.Fatalf("shards=%d: empty measurement window (off=%d on=%d ops)", shards, off.Ops, on.Ops)
		}
		if off.ReaderServed != 0 || off.ReaderFallback != 0 {
			t.Fatalf("shards=%d: control run touched the optimistic path: %+v", shards, off)
		}
		if on.ReaderServed == 0 {
			t.Fatalf("shards=%d: optimistic path served nothing", shards)
		}
		// The serve rate, not just the total, is what the figure claims:
		// with the whole index buffered most lookups must bypass the worker.
		if rate := float64(on.ReaderServed) / float64(on.ReaderServed+on.ReaderFallback); rate < 0.5 {
			t.Errorf("shards=%d: optimistic serve rate %.2f < 0.5", shards, rate)
		}
		if on.Throughput < 2*off.Throughput {
			t.Errorf("shards=%d: read-heavy speedup %.2fx < 2x (on=%.0f off=%.0f ops/s)",
				shards, on.Throughput/off.Throughput, on.Throughput, off.Throughput)
		}
	}
}

// TestReadHeavyDeterminism pins the read-heavy driver itself: the
// optimistic descent runs inside the single-threaded simulation, so a
// same-seed run must reproduce every statistic exactly.
func TestReadHeavyDeterminism(t *testing.T) {
	a := readHeavyRun(t, 2, true)
	b := readHeavyRun(t, 2, true)
	if a.Ops != b.Ops || a.ReaderServed != b.ReaderServed ||
		a.ReaderFallback != b.ReaderFallback || a.Throughput != b.Throughput ||
		a.MeanLatency != b.MeanLatency || a.P99Latency != b.P99Latency {
		t.Fatalf("same-seed read-heavy runs diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}
