package patree

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
)

// TestShardedPropertyOps runs the randomized oracle stream over 1, 2, 4
// and 8 shards: the public surface must be indistinguishable from the
// single-worker tree at every shard count.
func TestShardedPropertyOps(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			t.Parallel()
			ops := 2500
			if testing.Short() {
				ops = 600
			}
			runOracle(t, randomStream(int64(7700+n), ops), dbTarget{shards: n, devices: 1, buffer: 1024, sp: mixed,
				check: func(t *testing.T, db *DB, model map[uint64][]byte) {
					st := db.Stats()
					if st.Shards != n {
						t.Fatalf("Stats.Shards = %d, want %d", st.Shards, n)
					}
					if st.NumKeys != uint64(len(model)) {
						t.Fatalf("shards=%d: Stats.NumKeys = %d, oracle %d", n, st.NumKeys, len(model))
					}
				}})
		})
	}
}

// TestScanLimitSingleShard pins the documented limit semantics on the
// classic single-worker path: limit 0 means all, limit 1 returns the
// first pair, and an empty range returns nothing (not everything).
func TestScanLimitSingleShard(t *testing.T) {
	db := openTest(t, Options{Shards: 1, BufferPages: 1024})
	for k := uint64(10); k <= 50; k += 10 {
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	pairs, err := db.Scan(0, 100, 0)
	if err != nil || len(pairs) != 5 {
		t.Fatalf("limit 0: %d pairs, err %v; want all 5", len(pairs), err)
	}
	pairs, err = db.Scan(0, 100, 1)
	if err != nil || len(pairs) != 1 || pairs[0].Key != 10 {
		t.Fatalf("limit 1: %+v, err %v; want [{10 v10}]", pairs, err)
	}
	pairs, err = db.Scan(11, 19, 0)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("empty range limit 0: %d pairs, err %v; want none", len(pairs), err)
	}
	pairs, err = db.Scan(60, 40, 5)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("inverted range: %d pairs, err %v; want none", len(pairs), err)
	}
}

// TestScanLimitSharded pins the same semantics through the scatter-
// gather merge: the global limit applies to the merged stream, so the
// result is the exact ascending prefix a single tree would return.
func TestScanLimitSharded(t *testing.T) {
	db := openTest(t, Options{Shards: 4, BufferPages: 1024})
	for k := uint64(1); k <= 64; k++ {
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	pairs, err := db.Scan(0, ^uint64(0), 0)
	if err != nil || len(pairs) != 64 {
		t.Fatalf("limit 0: %d pairs, err %v; want 64", len(pairs), err)
	}
	for _, limit := range []int{1, 3, 17, 64, 100} {
		pairs, err := db.Scan(0, ^uint64(0), limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		want := limit
		if want > 64 {
			want = 64
		}
		if len(pairs) != want {
			t.Fatalf("limit %d: %d pairs, want %d", limit, len(pairs), want)
		}
		for i, p := range pairs {
			if p.Key != uint64(i+1) {
				t.Fatalf("limit %d: pair %d has key %d, want %d (merge must be globally ascending)",
					limit, i, p.Key, i+1)
			}
		}
	}
	if pairs, err = db.Scan(30, 20, 0); err != nil || len(pairs) != 0 {
		t.Fatalf("inverted range: %d pairs, err %v; want none", len(pairs), err)
	}
}

// TestShardedReopen verifies the sharded on-device layout round-trips:
// keys written across shards survive Close and reopen with the same
// shard count, on the same device.
func TestShardedReopen(t *testing.T) {
	runOracle(t, putStream(500), dbTarget{shards: 4, devices: 1, journal: true, sp: mixed, reopen: true,
		check: func(t *testing.T, db *DB, _ map[uint64][]byte) {
			if st := db.Stats(); st.NumKeys != 500 || st.Shards != 4 {
				t.Fatalf("stats after reopen: %+v", st)
			}
		}})
}

// TestShardCountMismatch verifies a device formatted under one shard
// layout refuses to open under another, in both directions.
func TestShardCountMismatch(t *testing.T) {
	dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})
	defer dev.Close()
	db, err := Open(Options{Device: dev, Shards: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db.Put(7, []byte("x"))
	db.Close()

	for _, wrong := range []int{1, 2, 8} {
		if db, err = Open(Options{Device: dev, Shards: wrong}); err == nil {
			db.Close()
			t.Fatalf("reopening a 4-shard device with %d shards succeeded", wrong)
		} else if !strings.Contains(err.Error(), "shard") {
			t.Fatalf("mismatch error does not mention shards: %v", err)
		}
	}
	// The matching count still opens, data intact.
	db, err = Open(Options{Device: dev, Shards: 4})
	if err != nil {
		t.Fatalf("matching reopen: %v", err)
	}
	defer db.Close()
	if v, ok, err := db.Get(7); err != nil || !ok || string(v) != "x" {
		t.Fatalf("get after matching reopen: %q/%v/%v", v, ok, err)
	}

	// And a single-shard device refuses a sharded open.
	dev2 := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})
	defer dev2.Close()
	db2, err := Open(Options{Device: dev2})
	if err != nil {
		t.Fatalf("open flat: %v", err)
	}
	db2.Close()
	if db2, err = Open(Options{Device: dev2, Shards: 4}); err == nil {
		db2.Close()
		t.Fatal("reopening a single-worker device with 4 shards succeeded")
	}
}

// TestShardedTooSmall pins the partition floor: a device too small for
// the requested shard count is refused with a descriptive error.
func TestShardedTooSmall(t *testing.T) {
	dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 2048})
	defer dev.Close()
	if db, err := Open(Options{Device: dev, Shards: 16}); err == nil {
		db.Close()
		t.Fatal("16 shards on a 2048-block device succeeded")
	} else if !strings.Contains(err.Error(), "too small") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestShardedRaceHammer hammers every public entry point — async point
// ops, scatter-gather scans, syncs, Stats, Metrics, WriteTrace — from
// many goroutines across 4 shards, with Close racing the tail.
// Run under -race. Every handle must resolve with nil or ErrClosed.
func TestShardedRaceHammer(t *testing.T) {
	db, err := Open(Options{DeviceBlocks: 1 << 16, Shards: 4, Trace: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	raceHammer(t, db, func(w int) int64 { return int64(w) * 31 }, 10)
}

// raceHammer runs 8 goroutines of 250 random operations each against db,
// worker w's drawn from seed(w), with Close racing the tail; every
// operation must resolve with nil or ErrClosed (ErrBacklog for a
// TryCommit). Each operation is one of the first kinds cases: ten are
// async puts, gets, scans and syncs, Stats, Metrics and WriteTrace; the
// eleventh and twelfth are a blocking Get and a TryCommit batch.
func raceHammer(t *testing.T, db *DB, seed func(w int) int64, kinds int) {
	const (
		workers = 8
		opsEach = 250
	)
	var resolved atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed(w)))
			for i := 0; i < opsEach; i++ {
				key := 1 + uint64(rng.Intn(512))
				var h *Handle
				var err error
				kind := rng.Intn(kinds)
				switch kind {
				case 0, 1, 2:
					h, err = db.PutAsync(key, []byte(fmt.Sprintf("w%d-%d", w, i)))
				case 3, 4, 5:
					h, err = db.GetAsync(key)
				case 6:
					h, err = db.ScanAsync(key, key+64, 8)
				case 7:
					h, err = db.SyncAsync()
				case 8:
					db.Stats()
				case 9:
					if rng.Intn(2) == 0 {
						db.Metrics()
					} else {
						db.WriteTrace(io.Discard)
					}
				case 10:
					if _, _, gerr := db.Get(key); gerr != nil && !errors.Is(gerr, ErrClosed) {
						t.Errorf("get: %v", gerr)
					}
				default:
					b := db.NewBatch()
					for j := 0; j < 8; j++ {
						b.Put(key+uint64(j), []byte("b"))
					}
					if cerr := b.TryCommit(); cerr != nil {
						if !errors.Is(cerr, ErrBacklog) && !errors.Is(cerr, ErrClosed) {
							t.Errorf("trycommit: %v", cerr)
						}
					} else if werr := b.Wait(); werr != nil && !errors.Is(werr, ErrClosed) {
						t.Errorf("batch wait: %v", werr)
					}
					b.Release()
				}
				if kind < 8 {
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("admit: %v", err)
						}
					} else {
						if werr := h.Wait(); werr != nil && !errors.Is(werr, ErrClosed) {
							t.Errorf("handle resolved with unexpected error: %v", werr)
						}
						h.Release()
					}
				}
				resolved.Add(1)
			}
		}(w)
	}
	closeErr := make(chan error, 1)
	go func() { closeErr <- db.Close() }()
	wg.Wait()
	if err := <-closeErr; err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, want := resolved.Load(), uint64(workers*opsEach); got != want {
		t.Fatalf("%d of %d operations resolved", got, want)
	}
}

// TestShardedTryCommitAllOrNothing forces one shard's sub-batch past
// its ring capacity: TryCommit must return ErrBacklog having admitted
// nothing anywhere, and the batch must stay retryable via Commit.
func TestShardedTryCommitAllOrNothing(t *testing.T) {
	db, err := Open(Options{DeviceBlocks: 1 << 16, Shards: 4, InboxDepth: 16})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	// Collect keys that all route to shard 0, so its sub-batch alone
	// overflows the 16-slot ring while other shards' stay tiny.
	var hot []uint64
	var cold uint64
	for k := uint64(1); len(hot) < 64 || cold == 0; k++ {
		if core.ShardOf(k, 4) == 0 {
			hot = append(hot, k)
		} else if cold == 0 {
			cold = k
		}
	}
	b := db.NewBatch()
	for _, k := range hot {
		b.Put(k, []byte("h"))
	}
	ci := b.Get(cold)
	if err := b.TryCommit(); !errors.Is(err, ErrBacklog) {
		t.Fatalf("TryCommit with an oversized sub-batch: %v, want ErrBacklog", err)
	}
	// Nothing was admitted: the cold shard must not know the key yet and
	// the batch must still commit in full through the blocking path.
	if _, ok, err := db.Get(hot[0]); err != nil || ok {
		t.Fatalf("key leaked from an aborted TryCommit: ok=%v err=%v", ok, err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("blocking commit after ErrBacklog: %v", err)
	}
	if err := b.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if b.Found(ci) {
		t.Fatal("cold get found a key that was never put")
	}
	b.Release()
	for _, k := range hot {
		if _, ok, err := db.Get(k); err != nil || !ok {
			t.Fatalf("key %d missing after commit: ok=%v err=%v", k, ok, err)
		}
	}
}

// FuzzShardedOps runs the fuzzed op stream through a 4-shard DB with
// a close/reopen cycle before the final scan, asserting the sharded
// layout persisted.
func FuzzShardedOps(f *testing.F) {
	addStreamSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOracle(t, data, 400, dbTarget{shards: 4, devices: 1, buffer: 512, sp: mixed, reopen: true})
	})
}

// TestShardedGetAllocs is the alloc guard behind BenchmarkShardedGet:
// routing a cached Get through the shard table must not add admission-
// side allocations over the single-worker budget.
func TestShardedGetAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is slow")
	}
	db := openTest(t, Options{Shards: 4, BufferPages: 1024})
	for k := uint64(1); k <= 512; k++ {
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	key := uint64(0)
	got := testing.AllocsPerRun(2000, func() {
		key = key%512 + 1
		if _, ok, err := db.Get(key); !ok || err != nil {
			t.Fatalf("Get(%d) = %v %v", key, ok, err)
		}
	})
	t.Logf("sharded cached Get: %.2f allocs/op", got)
	if got > 2 {
		t.Errorf("sharded cached Get allocates %.2f per op, budget 2", got)
	}
}

// BenchmarkShardedGet measures point-lookup throughput against 1 and 4
// shards over the RAM device (allocations reported for the CI guard).
func BenchmarkShardedGet(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			db, err := Open(Options{DeviceBlocks: 1 << 16, Shards: n, BufferPages: 4096})
			if err != nil {
				b.Fatalf("open: %v", err)
			}
			defer db.Close()
			const keys = 4096
			for k := uint64(1); k <= keys; k++ {
				if err := db.Put(k, []byte("benchvalue")); err != nil {
					b.Fatalf("put: %v", err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			key := uint64(0)
			for i := 0; i < b.N; i++ {
				key = key%keys + 1
				if _, ok, err := db.Get(key); !ok || err != nil {
					b.Fatalf("get %d: %v %v", key, ok, err)
				}
			}
		})
	}
}
