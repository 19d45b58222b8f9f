package patree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
)

// shardedDB opens a DB over a fresh RAM device with the given shard
// count. The device is owned by the DB and released on Close.
func shardedDB(t *testing.T, shards int) *DB {
	t.Helper()
	db, err := Open(Options{DeviceBlocks: 1 << 16, Shards: shards, BufferPages: 1024})
	if err != nil {
		t.Fatalf("open %d shards: %v", shards, err)
	}
	return db
}

// oracleScan is the flat-map reference for Scan: ascending pairs with
// keys in [lo, hi], at most limit (<= 0 = all).
func oracleScan(model map[uint64][]byte, lo, hi uint64, limit int) []KV {
	keys := make([]uint64, 0, len(model))
	for k := range model {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]KV, len(keys))
	for i, k := range keys {
		out[i] = KV{Key: k, Value: model[k]}
	}
	return out
}

func checkScan(t *testing.T, label string, got, want []KV) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: scan returned %d pairs, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: scan[%d] = (%d, %q), oracle (%d, %q)",
				label, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// runShardedOps drives a randomized stream of point ops, scans and
// batches against one DB and a flat map oracle. Every failure message
// carries the seed and shard count that reproduce it.
func runShardedOps(t *testing.T, db *DB, shards int, seed int64, ops int) map[uint64][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := map[uint64][]byte{}
	const space = 1024
	label := func(i int) string { return fmt.Sprintf("seed=%d shards=%d op=%d", seed, shards, i) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("s%d.%d", seed, i)) }
	for i := 0; i < ops; i++ {
		key := 1 + uint64(rng.Intn(space))
		switch rng.Intn(10) {
		case 0, 1, 2:
			v := val(i)
			if err := db.Put(key, v); err != nil {
				t.Fatalf("%s: put %d: %v", label(i), key, err)
			}
			model[key] = v
		case 3:
			_, existed := model[key]
			v := val(i)
			found, err := db.Update(key, v)
			if err != nil {
				t.Fatalf("%s: update %d: %v", label(i), key, err)
			}
			if found != existed {
				t.Fatalf("%s: update %d found=%v, oracle %v", label(i), key, found, existed)
			}
			if existed {
				model[key] = v
			}
		case 4:
			_, existed := model[key]
			found, err := db.Delete(key)
			if err != nil {
				t.Fatalf("%s: delete %d: %v", label(i), key, err)
			}
			if found != existed {
				t.Fatalf("%s: delete %d found=%v, oracle %v", label(i), key, found, existed)
			}
			delete(model, key)
		case 5, 6:
			want, existed := model[key]
			v, found, err := db.Get(key)
			if err != nil {
				t.Fatalf("%s: get %d: %v", label(i), key, err)
			}
			if found != existed || (existed && !bytes.Equal(v, want)) {
				t.Fatalf("%s: get %d = %q/%v, oracle %q/%v", label(i), key, v, found, want, existed)
			}
		case 7, 8:
			lo := uint64(rng.Intn(space))
			hi := lo + uint64(rng.Intn(space/2))
			limit := rng.Intn(12) - 1 // occasionally negative (= all)
			pairs, err := db.Scan(lo, hi, limit)
			if err != nil {
				t.Fatalf("%s: scan [%d,%d] limit %d: %v", label(i), lo, hi, limit, err)
			}
			checkScan(t, fmt.Sprintf("%s scan[%d,%d]l%d", label(i), lo, hi, limit),
				pairs, oracleScan(model, lo, hi, limit))
		default:
			// A batch of mixed point ops. Per-key ordering is preserved
			// because one key always lands on one shard in staging order,
			// so the sequential model stays exact.
			b := db.NewBatch()
			type staged struct {
				idx  int
				kind int
				key  uint64
				val  []byte
				// expectation snapshot at staging time
				want    []byte
				existed bool
			}
			var st []staged
			shadow := map[uint64][]byte{}
			for k, v := range model {
				shadow[k] = v
			}
			n := 1 + rng.Intn(24)
			for j := 0; j < n; j++ {
				k := 1 + uint64(rng.Intn(space))
				kind := rng.Intn(4)
				s := staged{kind: kind, key: k}
				switch kind {
				case 0:
					s.val = val(i*1000 + j)
					s.idx = b.Put(k, s.val)
					shadow[k] = s.val
				case 1:
					s.want, s.existed = shadow[k]
					s.idx = b.Get(k)
				case 2:
					_, s.existed = shadow[k]
					s.idx = b.Delete(k)
					delete(shadow, k)
				default:
					s.val = val(i*1000 + j)
					_, s.existed = shadow[k]
					s.idx = b.Update(k, s.val)
					if s.existed {
						shadow[k] = s.val
					}
				}
				st = append(st, s)
			}
			if rng.Intn(2) == 0 {
				for {
					err := b.TryCommit()
					if err == nil {
						break
					}
					if !errors.Is(err, ErrBacklog) {
						t.Fatalf("%s: trycommit: %v", label(i), err)
					}
				}
			} else if err := b.Commit(); err != nil {
				t.Fatalf("%s: batch commit: %v", label(i), err)
			}
			if err := b.Wait(); err != nil {
				t.Fatalf("%s: batch wait: %v", label(i), err)
			}
			for _, s := range st {
				switch s.kind {
				case 1:
					if b.Found(s.idx) != s.existed || (s.existed && !bytes.Equal(b.Value(s.idx), s.want)) {
						t.Fatalf("%s: batch get %d = %q/%v, oracle %q/%v",
							label(i), s.key, b.Value(s.idx), b.Found(s.idx), s.want, s.existed)
					}
				case 2, 3:
					if b.Found(s.idx) != s.existed {
						t.Fatalf("%s: batch op kind %d key %d found=%v, oracle %v",
							label(i), s.kind, s.key, b.Found(s.idx), s.existed)
					}
				}
			}
			b.Release()
			for k, v := range shadow {
				model[k] = v
			}
			for k := range model {
				if _, ok := shadow[k]; !ok {
					delete(model, k)
				}
			}
		}
	}
	// Full-range scan: the merged cross-shard view must equal the model.
	pairs, err := db.Scan(0, ^uint64(0), 0)
	if err != nil {
		t.Fatalf("seed=%d shards=%d: final scan: %v", seed, shards, err)
	}
	checkScan(t, fmt.Sprintf("seed=%d shards=%d final", seed, shards),
		pairs, oracleScan(model, 0, ^uint64(0), 0))
	return model
}

// TestShardedPropertyOps runs the randomized oracle stream over 1, 2, 4
// and 8 shards: the public surface must be indistinguishable from the
// single-worker tree at every shard count.
func TestShardedPropertyOps(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			t.Parallel()
			db := shardedDB(t, n)
			defer db.Close()
			ops := 2500
			if testing.Short() {
				ops = 600
			}
			model := runShardedOps(t, db, n, int64(7700+n), ops)
			st := db.Stats()
			if st.Shards != n {
				t.Fatalf("Stats.Shards = %d, want %d", st.Shards, n)
			}
			if st.NumKeys != uint64(len(model)) {
				t.Fatalf("shards=%d: Stats.NumKeys = %d, oracle %d", n, st.NumKeys, len(model))
			}
		})
	}
}

// TestScanLimitSingleShard pins the documented limit semantics on the
// classic single-worker path: limit 0 means all, limit 1 returns the
// first pair, and an empty range returns nothing (not everything).
func TestScanLimitSingleShard(t *testing.T) {
	db := shardedDB(t, 1)
	defer db.Close()
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
	db := shardedDB(t, 4)
	defer db.Close()
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
	dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})
	defer dev.Close()
	db, err := Open(Options{Device: dev, Shards: 4, Journal: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const n = 500
	for k := uint64(1); k <= n; k++ {
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db, err = Open(Options{Device: dev, Shards: 4, Journal: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	for k := uint64(1); k <= n; k++ {
		v, ok, err := db.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("get %d after reopen: %q/%v/%v", k, v, ok, err)
		}
	}
	if st := db.Stats(); st.NumKeys != n || st.Shards != 4 {
		t.Fatalf("stats after reopen: %+v", st)
	}
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
// ops, scatter-gather scans, syncs, batches, Stats, Metrics, WriteTrace
// — from many goroutines across 4 shards, with Close racing the tail.
// Run under -race. Every handle must resolve with nil or ErrClosed.
func TestShardedRaceHammer(t *testing.T) {
	db, err := Open(Options{DeviceBlocks: 1 << 16, Shards: 4, Trace: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
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
			rng := rand.New(rand.NewSource(int64(w) * 31))
			for i := 0; i < opsEach; i++ {
				key := 1 + uint64(rng.Intn(512))
				var h *Handle
				var err error
				switch rng.Intn(10) {
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
					resolved.Add(1)
					continue
				default:
					if rng.Intn(2) == 0 {
						db.Metrics()
					} else {
						db.WriteTrace(io.Discard)
					}
					resolved.Add(1)
					continue
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("admit: %v", err)
					}
					resolved.Add(1)
					continue
				}
				if werr := h.Wait(); werr != nil && !errors.Is(werr, ErrClosed) {
					t.Errorf("handle resolved with unexpected error: %v", werr)
				}
				h.Release()
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

// FuzzShardedOps mirrors internal/fault's FuzzTreeOps through the
// public API over a 4-shard DB: a byte stream becomes a sequence of
// point ops and scans checked against a flat map oracle, with a final
// close/reopen cycle asserting the sharded layout persisted.
func FuzzShardedOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 0, 1, 5, 2, 0, 1, 0})
	f.Add([]byte{4, 1, 0, 3, 0, 1, 0, 7, 3, 0, 0, 0, 2, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 2, 3, 9, 1, 2, 3, 0, 4, 0, 200, 3}, 30))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzShardedOps(t, data, false) })
}

// fuzzShardedOps is the body of FuzzShardedOps; with along set, readAlong
// races every operation of the stream until the close/reopen cycle.
func fuzzShardedOps(t *testing.T, data []byte, along bool) {
	const chunk = 4
	ops := len(data) / chunk
	if ops == 0 {
		t.Skip()
	}
	if ops > 400 {
		ops = 400
	}
	dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 15})
	defer dev.Close()
	db, err := Open(Options{Device: dev, Shards: 4, BufferPages: 512})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	model := map[uint64][]byte{}
	stop := func() {}
	if along {
		stop = readAlong(t, db)
		defer stop()
	}
	for i := 0; i < ops; i++ {
		b := data[i*chunk : (i+1)*chunk]
		key := 1 + uint64(b[1])%200 + uint64(b[2])%50*7
		val := []byte{b[3], byte(key), byte(i)}
		switch b[0] % 6 {
		case 0, 1: // put
			if err := db.Put(key, val); err != nil {
				t.Fatalf("op %d: put %d: %v", i, key, err)
			}
			model[key] = append([]byte(nil), val...)
		case 2: // delete
			_, existed := model[key]
			found, err := db.Delete(key)
			if err != nil {
				t.Fatalf("op %d: delete %d: %v", i, key, err)
			}
			if found != existed {
				t.Fatalf("op %d: delete %d found=%v, model %v", i, key, found, existed)
			}
			delete(model, key)
		case 3: // get
			want, existed := model[key]
			v, found, err := db.Get(key)
			if err != nil {
				t.Fatalf("op %d: get %d: %v", i, key, err)
			}
			if found != existed || (existed && !bytes.Equal(v, want)) {
				t.Fatalf("op %d: get %d = %q/%v, model %q/%v", i, key, v, found, want, existed)
			}
		case 4: // update
			_, existed := model[key]
			found, err := db.Update(key, val)
			if err != nil {
				t.Fatalf("op %d: update %d: %v", i, key, err)
			}
			if found != existed {
				t.Fatalf("op %d: update %d found=%v, model %v", i, key, found, existed)
			}
			if existed {
				model[key] = append([]byte(nil), val...)
			}
		default: // scan
			lo := uint64(b[1])
			hi := lo + uint64(b[3])*3
			limit := int(b[2]) % 5 // 0 = all
			pairs, err := db.Scan(lo, hi, limit)
			if err != nil {
				t.Fatalf("op %d: scan [%d,%d] limit %d: %v", i, lo, hi, limit, err)
			}
			checkScan(t, fmt.Sprintf("op=%d scan[%d,%d]l%d", i, lo, hi, limit),
				pairs, oracleScan(model, lo, hi, limit))
		}
	}
	stop()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db, err = Open(Options{Device: dev, Shards: 4, BufferPages: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	pairs, err := db.Scan(0, ^uint64(0), 0)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	checkScan(t, "after reopen", pairs, oracleScan(model, 0, ^uint64(0), 0))
}

// TestShardedGetAllocs is the alloc guard behind BenchmarkShardedGet:
// routing a cached Get through the shard table must not add admission-
// side allocations over the single-worker budget.
func TestShardedGetAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is slow")
	}
	db := shardedDB(t, 4)
	defer db.Close()
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
