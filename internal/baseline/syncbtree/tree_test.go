package syncbtree

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/fault"
	"github.com/patree/patree/internal/latch"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

type rig struct {
	eng  *sim.Engine
	os   *simos.Sched
	dev  *nvme.SimDevice
	tree *Tree
	io   IO
}

func newRig(t *testing.T, shared bool, cfg Config) *rig {
	t.Helper()
	r := &rig{}
	r.eng = sim.NewEngine()
	r.os = simos.New(r.eng, simos.Config{})
	r.dev = nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 7})
	meta, err := core.Format(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		sio := NewShared(r.dev, r.os)
		r.io = sio
		t.Cleanup(func() { sio.Stop(); r.eng.RunFor(time.Second) })
	} else {
		r.io = NewDedicated(r.dev, r.os)
	}
	r.tree = NewTree(r.os, r.io, cfg, meta)
	return r
}

// thLive tracks which test workers are still running (the shared-IO
// daemon thread never exits on its own, so Sched.Live cannot be used).
var thLive = map[*simos.Thread]bool{}

func (r *rig) spawnTracked(name string, body func(*simos.Thread)) {
	var th *simos.Thread
	th = r.os.Spawn(name, func(tt *simos.Thread) {
		defer func() { thLive[tt] = false }()
		body(tt)
	})
	thLive[th] = true
}

func TestSyncTreeBasicSingleThread(t *testing.T) {
	for _, shared := range []bool{false, true} {
		name := "dedicated"
		if shared {
			name = "shared"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, shared, Config{})
			doneOps := 0
			r.spawnTracked("w", func(th *simos.Thread) {
				for i := 0; i < 200; i++ {
					if _, err := r.tree.Insert(th, uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
						t.Errorf("insert %d: %v", i, err)
						return
					}
				}
				for i := 0; i < 200; i++ {
					val, found, err := r.tree.Search(th, uint64(i))
					if err != nil || !found || string(val) != fmt.Sprintf("v%d", i) {
						t.Errorf("search %d: %q %v %v", i, val, found, err)
						return
					}
				}
				pairs, err := r.tree.RangeScan(th, 50, 59, 0)
				if err != nil || len(pairs) != 10 {
					t.Errorf("range: %d pairs, %v", len(pairs), err)
				}
				if ok, err := r.tree.Delete(th, 100); !ok || err != nil {
					t.Errorf("delete: %v %v", ok, err)
				}
				if _, found, _ := r.tree.Search(th, 100); found {
					t.Error("deleted key found")
				}
				doneOps++
			})
			driveAll(t, r)
			if doneOps != 1 {
				t.Fatal("worker did not finish")
			}
			if r.tree.NumKeys() != 199 {
				t.Fatalf("numKeys = %d", r.tree.NumKeys())
			}
		})
	}
}

// driveAll steps the engine until all tracked workers finished.
func driveAll(t *testing.T, r *rig) {
	t.Helper()
	deadline := 100_000_000
	for i := 0; i < deadline; i++ {
		live := false
		for th, l := range thLive {
			_ = th
			if l {
				live = true
				break
			}
		}
		if !live {
			return
		}
		if !r.eng.Step() {
			t.Fatal("engine drained with live workers (deadlock)")
		}
	}
	t.Fatal("engine step budget exhausted")
}

func TestSyncTreeMultiThreadedConsistency(t *testing.T) {
	r := newRig(t, false, Config{})
	const workers = 8
	const perWorker = 150
	for w := 0; w < workers; w++ {
		w := w
		r.spawnTracked(fmt.Sprintf("w%d", w), func(th *simos.Thread) {
			for i := 0; i < perWorker; i++ {
				key := uint64(w*perWorker + i)
				if _, err := r.tree.Insert(th, key, []byte("v")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		})
	}
	driveAll(t, r)
	if r.tree.NumKeys() != workers*perWorker {
		t.Fatalf("numKeys = %d, want %d", r.tree.NumKeys(), workers*perWorker)
	}
	// Verify all keys via a fresh worker.
	missing := 0
	r.spawnTracked("verify", func(th *simos.Thread) {
		for k := uint64(0); k < workers*perWorker; k++ {
			if _, found, _ := r.tree.Search(th, k); !found {
				missing++
			}
		}
	})
	driveAll(t, r)
	if missing != 0 {
		t.Fatalf("%d keys missing after concurrent inserts", missing)
	}
}

func TestSyncTreeSharedDaemonPath(t *testing.T) {
	r := newRig(t, true, Config{})
	const workers = 4
	for w := 0; w < workers; w++ {
		w := w
		r.spawnTracked(fmt.Sprintf("w%d", w), func(th *simos.Thread) {
			for i := 0; i < 60; i++ {
				key := uint64(w*1000 + i)
				if _, err := r.tree.Insert(th, key, []byte("v")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, found, err := r.tree.Search(th, key); !found || err != nil {
					t.Errorf("readback %d: %v %v", key, found, err)
					return
				}
			}
		})
	}
	driveAll(t, r)
	if r.tree.NumKeys() != workers*60 {
		t.Fatalf("numKeys = %d", r.tree.NumKeys())
	}
}

func TestSyncTreeWeakPersistenceAndSync(t *testing.T) {
	r := newRig(t, false, Config{Persistence: core.WeakPersistence, CachePages: 4096})
	r.spawnTracked("w", func(th *simos.Thread) {
		for i := 0; i < 300; i++ {
			r.tree.Insert(th, uint64(i), []byte("v"))
		}
		if err := r.tree.Sync(th); err != nil {
			t.Errorf("sync: %v", err)
		}
	})
	driveAll(t, r)
	// After sync the device holds a consistent tree.
	meta, err := core.ReadMeta(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumKeys != 300 {
		t.Fatalf("meta numKeys = %d", meta.NumKeys)
	}
	buf := make([]byte, storage.PageSize)
	r.dev.ReadAt(uint64(meta.Root), buf)
	if !storage.VerifyPage(meta.Root, buf) {
		t.Fatal("root not durable: fails verification")
	}
	if _, err := storage.DecodeNode(meta.Root, buf); err != nil {
		t.Fatalf("root not durable: %v", err)
	}
}

// TestFaultBitRotIsNotCached reads a loaded tree through a cold cache
// over a fault wrapper that rots the first read: the op that reads the
// rotten page fails, and since the page was refused rather than cached,
// the next op on the same key reads it again and succeeds.
func TestFaultBitRotIsNotCached(t *testing.T) {
	r := newRig(t, false, Config{})
	r.spawnTracked("load", func(th *simos.Thread) {
		for i := 0; i < 200; i++ {
			if _, err := r.tree.Insert(th, uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
	driveAll(t, r)
	meta, err := core.ReadMeta(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	fd := fault.New(r.dev, fault.Config{Seed: 1})
	cold := NewTree(r.os, NewDedicated(fd, r.os), Config{CachePages: 64}, meta)
	r.spawnTracked("read", func(th *simos.Thread) {
		fd.SetProbs(fault.Probs{BitRot: 1})
		if _, _, err := cold.Search(th, 42); !errors.Is(err, storage.ErrCorruptPage) {
			t.Errorf("search over a rotten read: err = %v, want ErrCorruptPage", err)
		}
		fd.SetProbs(fault.Probs{})
		if v, found, err := cold.Search(th, 42); err != nil || !found || string(v) != "v42" {
			t.Errorf("search after the rotten read: %q %v %v", v, found, err)
		}
	})
	driveAll(t, r)
	if n := fd.Counts().BitRots; n != 1 {
		t.Fatalf("%d reads rotted, want 1", n)
	}
}

func TestSyncTreeWeakMergesWrites(t *testing.T) {
	r := newRig(t, false, Config{Persistence: core.WeakPersistence, CachePages: 4096})
	r.spawnTracked("w", func(th *simos.Thread) {
		for i := 0; i < 200; i++ {
			r.tree.Insert(th, 1, []byte(fmt.Sprintf("v%d", i)))
		}
	})
	driveAll(t, r)
	if w := r.dev.Stats().CompletedWrites; w > 10 {
		t.Fatalf("weak mode issued %d device writes for 200 same-page updates", w)
	}
}

func TestSyncTreeSplitsUnderContention(t *testing.T) {
	r := newRig(t, false, Config{})
	const workers = 6
	rngs := make([]*sim.RNG, workers)
	for i := range rngs {
		rngs[i] = sim.NewRNG(uint64(100 + i))
	}
	inserted := make([]map[uint64]bool, workers)
	for w := 0; w < workers; w++ {
		w := w
		inserted[w] = map[uint64]bool{}
		r.spawnTracked(fmt.Sprintf("w%d", w), func(th *simos.Thread) {
			for i := 0; i < 120; i++ {
				k := rngs[w].Uint64n(2000)
				r.tree.Insert(th, k, []byte("v"))
				inserted[w][k] = true
			}
		})
	}
	driveAll(t, r)
	all := map[uint64]bool{}
	for _, m := range inserted {
		for k := range m {
			all[k] = true
		}
	}
	if r.tree.NumKeys() != uint64(len(all)) {
		t.Fatalf("numKeys = %d, want %d", r.tree.NumKeys(), len(all))
	}
	missing := 0
	r.spawnTracked("verify", func(th *simos.Thread) {
		for k := range all {
			if _, found, _ := r.tree.Search(th, k); !found {
				missing++
			}
		}
	})
	driveAll(t, r)
	if missing > 0 {
		t.Fatalf("%d keys missing", missing)
	}
}

func TestSyncTreeThroughputScalesThenLatencyGrows(t *testing.T) {
	// The defining property of the sync paradigm (Figures 7-8): one
	// thread is slow; more threads raise throughput; latency grows with
	// thread count.
	run := func(workers int) (opsPerSec float64, meanLat time.Duration) {
		r := newRig(t, false, Config{})
		var totalOps int
		var totalLat time.Duration
		for w := 0; w < workers; w++ {
			w := w
			r.spawnTracked(fmt.Sprintf("w%d", w), func(th *simos.Thread) {
				rng := sim.NewRNG(uint64(w))
				end := sim.Time(200 * time.Millisecond)
				for th.Now() < end {
					start := th.Now()
					r.tree.Search(th, rng.Uint64n(500))
					totalLat += time.Duration(th.Now() - start)
					totalOps++
				}
			})
		}
		// Preload a few keys first via one worker? Searches on a tiny
		// tree still do root I/O; fine for shape purposes.
		driveAll(t, r)
		return float64(totalOps) / 0.2, totalLat / time.Duration(totalOps)
	}
	ops1, lat1 := run(1)
	ops16, lat16 := run(16)
	if ops16 < 4*ops1 {
		t.Fatalf("16 threads %.0f ops/s not much above 1 thread %.0f", ops16, ops1)
	}
	if lat16 < lat1 {
		t.Fatalf("latency did not grow with threads: %v vs %v", lat16, lat1)
	}
}

func TestCASLatch(t *testing.T) {
	r := newRig(t, false, Config{})
	cl := NewCASLatch(r.os)
	inside, maxInside := 0, 0
	for w := 0; w < 4; w++ {
		r.spawnTracked("w", func(th *simos.Thread) {
			for i := 0; i < 20; i++ {
				cl.Lock(th, 42)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				th.Work(0, 5*time.Microsecond)
				inside--
				cl.Unlock(th, 42)
			}
		})
	}
	driveAll(t, r)
	if maxInside != 1 {
		t.Fatalf("CAS latch admitted %d holders", maxInside)
	}
	// TryLock semantics.
	r.spawnTracked("w2", func(th *simos.Thread) {
		if !cl.TryLock(th, 7) {
			t.Error("TryLock on free latch failed")
		}
		if cl.TryLock(th, 7) {
			t.Error("TryLock on held latch succeeded")
		}
		cl.Unlock(th, 7)
	})
	driveAll(t, r)
}

// TestBlockingLatchesFIFO queues three waiters behind an exclusive
// holder. They are granted first come, first served and resume in request
// order, and a release charges the releasing thread one sem_post syscall
// (CatSync) per waiter it wakes — the charge Figure 9's baseline breakdown
// attributes to synchronization. Exclusive waiters are granted one per
// release; shared ones all three by the holder's one release.
func TestBlockingLatchesFIFO(t *testing.T) {
	for _, tc := range []struct {
		mode  latch.Mode
		wakes int // waiters the holder's release wakes
	}{{latch.Exclusive, 1}, {latch.Shared, 3}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			// One core: woken threads run in the order they were woken, not
			// in the order their cores' context-switch costs happen to allow.
			r := &rig{eng: sim.NewEngine()}
			r.os = simos.New(r.eng, simos.Config{Cores: 1})
			lt := NewLatches(r.os)
			var order []int
			var released time.Duration
			r.spawnTracked("holder", func(th *simos.Thread) {
				lt.Acquire(th, 5, latch.Exclusive)
				th.Sleep(time.Millisecond)
				before := th.CPU.Get(metrics.CatSync)
				lt.Release(th, 5, latch.Exclusive)
				released = th.CPU.Get(metrics.CatSync) - before
			})
			for i := 0; i < 3; i++ {
				i := i
				r.spawnTracked("w", func(th *simos.Thread) {
					th.Sleep(time.Duration(i+1) * 10 * time.Microsecond) // stagger arrival
					lt.Acquire(th, 5, tc.mode)
					order = append(order, i)
					th.Sleep(time.Microsecond)
					lt.Release(th, 5, tc.mode)
				})
			}
			driveAll(t, r)
			if fmt.Sprint(order) != "[0 1 2]" {
				t.Fatalf("wake order = %v", order)
			}
			if want := time.Duration(tc.wakes) * simos.SyscallCost; released != want {
				t.Fatalf("holder's release charged %v of CatSync, want %v (%d wakes)", released, want, tc.wakes)
			}
			if lt.Waits() != 3 {
				t.Fatalf("waits = %d", lt.Waits())
			}
			if lt.tab.ActiveNodes() != 0 {
				t.Fatal("latch state leaked")
			}
		})
	}
}
