package patree

import (
	"slices"
	"testing"
	"time"
)

// Admission-pipeline benchmarks: wall-clock ops/sec of the public API
// from ONE caller goroutine. The blocking API pays two cross-goroutine
// hand-offs per operation (admit + complete) and keeps at most one
// operation in flight, so the working thread idles between operations;
// the async and batch paths keep a window in flight, which is exactly
// the queue depth the paper's design needs to shine. These run on the
// default in-memory device, so the gap shown is pure pipeline overhead —
// on a real NVMe it widens by the device latency that pipelining hides.

const benchWindow = 128

func benchDB(b *testing.B) *DB {
	return benchDBOpts(b, Options{DeviceBlocks: 1 << 16})
}

func benchDBOpts(b *testing.B, opts Options) *DB {
	b.Helper()
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for i := uint64(0); i < 4096; i++ {
		if err := db.Put(i, []byte("0123456789abcdef")); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkGetBlocking(b *testing.B) {
	db := benchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get(uint64(i) % 4096); !ok || err != nil {
			b.Fatalf("Get = %v %v", ok, err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e3, "Kops/s")
}

func BenchmarkGetAsync(b *testing.B) {
	db := benchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	hs := make([]*Handle, 0, benchWindow)
	for i := 0; i < b.N; {
		hs = hs[:0]
		for j := 0; j < benchWindow && i < b.N; j++ {
			h, err := db.GetAsync(uint64(i) % 4096)
			if err != nil {
				b.Fatal(err)
			}
			hs = append(hs, h)
			i++
		}
		for _, h := range hs {
			if !h.Found() {
				b.Fatal("missing key")
			}
			h.Release()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e3, "Kops/s")
}

func BenchmarkGetBatch(b *testing.B) {
	db := benchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		bt := db.NewBatch()
		for j := 0; j < benchWindow && i < b.N; j++ {
			bt.Get(uint64(i) % 4096)
			i++
		}
		if err := bt.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := bt.Wait(); err != nil {
			b.Fatal(err)
		}
		bt.Release()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e3, "Kops/s")
}

// BenchmarkGetBatchTraced is BenchmarkGetBatch with the lifecycle
// tracer on — committed evidence of what Options.Trace costs. Compare
// the two to see the tracing overhead; with Trace off the pipeline runs
// the exact BenchmarkGetBatch numbers (tracing is a nil check).
func BenchmarkGetBatchTraced(b *testing.B) {
	db := benchDBOpts(b, Options{DeviceBlocks: 1 << 16, Trace: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		bt := db.NewBatch()
		for j := 0; j < benchWindow && i < b.N; j++ {
			bt.Get(uint64(i) % 4096)
			i++
		}
		if err := bt.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := bt.Wait(); err != nil {
			b.Fatal(err)
		}
		bt.Release()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e3, "Kops/s")
}

func BenchmarkPutBatch(b *testing.B) {
	db := benchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		bt := db.NewBatch()
		for j := 0; j < benchWindow && i < b.N; j++ {
			bt.Put(uint64(i)%4096, []byte("0123456789abcdef"))
			i++
		}
		if err := bt.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := bt.Wait(); err != nil {
			b.Fatal(err)
		}
		bt.Release()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e3, "Kops/s")
}

// TestAsyncThroughputAdvantage pins the reason the async API exists: a
// single goroutine moves more lookups per second through a batch window
// than through the blocking call, because the blocking call pays a worker
// wake-up and a caller wake-up per lookup and the batch one of each per
// window. It counts the worker's side of that: the worker parks
// (Stats.Yields) when it runs out of work, so it parks about once per
// blocking lookup and about once per batched window. A batch admitted op
// by op would park about once per lookup and fails the gate. The
// wall-clock ratio (about 1.6-1.8x on 2 vCPUs) is only logged: another
// test binary sharing the CPUs moves it, not the counts.
func TestAsyncThroughputAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the pipeline/blocking ratio")
	}
	db := openTest(t, Options{DeviceBlocks: 1 << 16})
	for i := uint64(0); i < 4096; i++ {
		if err := db.Put(i, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	// measure runs f over n lookups and returns lookups per second and
	// the worker's parks per lookup.
	measure := func(f func(n int)) (opsPerSec, parks float64) {
		const n = 20000
		before := db.Stats().Yields
		start := time.Now()
		f(n)
		secs := time.Since(start).Seconds()
		return n / secs, float64(db.Stats().Yields-before) / n
	}
	getBlocking := func(n int) {
		for i := 0; i < n; i++ {
			if _, ok, err := db.Get(uint64(i) % 4096); !ok || err != nil {
				t.Fatalf("Get = %v %v", ok, err)
			}
		}
	}
	getBatched := func(n int) {
		for i := 0; i < n; {
			b := db.NewBatch()
			for j := 0; j < benchWindow && i < n; j++ {
				b.Get(uint64(i) % 4096)
				i++
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := b.Wait(); err != nil {
				t.Fatal(err)
			}
			b.Release()
		}
	}
	getBlocking(2048) // warm
	getBatched(2048)
	const rounds = 5
	var blockingRuns, batchedRuns, blockingParks, batchedParks []float64
	for r := 0; r < rounds; r++ {
		ops, parks := measure(getBlocking)
		blockingRuns, blockingParks = append(blockingRuns, ops), append(blockingParks, parks)
		ops, parks = measure(getBatched)
		batchedRuns, batchedParks = append(batchedRuns, ops), append(batchedParks, parks)
	}
	median := func(xs []float64) float64 {
		slices.Sort(xs)
		return xs[len(xs)/2]
	}
	blocking, batched := median(blockingRuns), median(batchedRuns)
	perLookup, perWindow := median(blockingParks), median(batchedParks)*benchWindow
	t.Logf("median of %d rounds: blocking %.0f ops/s, %.2f worker parks per lookup; batched %.0f ops/s, %.2f parks per %d-lookup window; ratio %.2fx",
		rounds, blocking, perLookup, batched, perWindow, benchWindow, batched/blocking)
	if perLookup < 0.5 {
		t.Errorf("blocking path: the worker parked %.2f times per lookup, want about 1 (at least 0.5)", perLookup)
	}
	if perWindow > 8 {
		t.Errorf("batched path: the worker parked %.2f times per %d-lookup window, want about 1 (at most 8)", perWindow, benchWindow)
	}
}
