package lsm

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/patree/patree/internal/baseline/syncbtree"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
)

type rig struct {
	eng  *sim.Engine
	os   *simos.Sched
	dev  *nvme.SimDevice
	tree *Tree
	live map[*simos.Thread]bool
}

func newRig(t *testing.T, cfg Config) *rig {
	if t != nil {
		t.Helper()
	}
	r := &rig{live: map[*simos.Thread]bool{}}
	r.eng = sim.NewEngine()
	r.os = simos.New(r.eng, simos.Config{})
	r.dev = nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 13})
	io := syncbtree.NewDedicated(r.dev, r.os)
	r.tree = New(r.os, io, r.dev, cfg)
	return r
}

func (r *rig) spawn(body func(*simos.Thread)) {
	var th *simos.Thread
	th = r.os.Spawn("w", func(tt *simos.Thread) {
		defer func() { r.live[tt] = false }()
		body(tt)
	})
	r.live[th] = true
}

func (r *rig) drive(t *testing.T) {
	t.Helper()
	for i := 0; i < 200_000_000; i++ {
		any := false
		for _, l := range r.live {
			if l {
				any = true
				break
			}
		}
		if !any {
			return
		}
		if !r.eng.Step() {
			t.Fatal("deadlock")
		}
	}
	t.Fatal("budget exhausted")
}

func TestSkiplistOrderedAndReplace(t *testing.T) {
	s := newSkiplist(1)
	rng := sim.NewRNG(2)
	model := map[uint64]byte{}
	for i := 0; i < 5000; i++ {
		k := rng.Uint64n(2000)
		v := byte(i)
		s.put(k, []byte{v}, false)
		model[k] = v
	}
	if s.count != len(model) {
		t.Fatalf("count = %d, want %d", s.count, len(model))
	}
	// In-order traversal is sorted and matches the model.
	prev := uint64(0)
	seen := 0
	for n := s.first(); n != nil; n = n.next[0] {
		if seen > 0 && n.key <= prev {
			t.Fatal("skiplist unordered")
		}
		if model[n.key] != n.value[0] {
			t.Fatalf("key %d = %d, want %d", n.key, n.value[0], model[n.key])
		}
		prev = n.key
		seen++
	}
	if seen != len(model) {
		t.Fatalf("traversed %d, want %d", seen, len(model))
	}
	// seek semantics.
	if n := s.seek(0); n == nil || n != s.first() {
		t.Fatal("seek(0) != first")
	}
	if n := s.seek(1 << 62); n != nil {
		t.Fatal("seek past end returned node")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	es := []entry{
		{key: 1, value: []byte("a")},
		{key: 2, value: nil, tombstone: true},
		{key: 3, value: make([]byte, 100)},
	}
	got, err := decodeBlock(encodeBlock(es))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1].tombstone != true || len(got[2].value) != 100 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestSpanAlloc(t *testing.T) {
	a := newSpanAlloc(10, 100)
	s1, _ := a.alloc(20)
	s2, _ := a.alloc(30)
	if s1 != 10 || s2 != 30 {
		t.Fatalf("allocs = %d, %d", s1, s2)
	}
	a.release(s1, 20)
	s3, _ := a.alloc(15)
	if s3 != 10 {
		t.Fatalf("first-fit reuse failed: %d", s3)
	}
	// Coalescing.
	a.release(s3, 15)
	a.release(25, 5) // remainder of the first span
	s4, _ := a.alloc(20)
	if s4 != 10 {
		t.Fatalf("coalesce failed: %d", s4)
	}
	if _, err := a.alloc(1000); err == nil {
		t.Fatal("overallocation accepted")
	}
}

func TestLSMBasicPutGetDelete(t *testing.T) {
	r := newRig(t, Config{Persistence: core.WeakPersistence})
	r.spawn(func(th *simos.Thread) {
		for i := 0; i < 500; i++ {
			if err := r.tree.Put(th, uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		for i := 0; i < 500; i++ {
			v, found, _ := r.tree.Get(th, uint64(i))
			if !found || string(v) != fmt.Sprintf("v%d", i) {
				t.Errorf("get %d: %q %v", i, v, found)
				return
			}
		}
		r.tree.Delete(th, 100)
		if _, found, _ := r.tree.Get(th, 100); found {
			t.Error("deleted key found")
		}
		if _, found, _ := r.tree.Get(th, 99999); found {
			t.Error("phantom key")
		}
	})
	r.drive(t)
	if r.tree.NumKeys() != 499 {
		t.Fatalf("numKeys = %d", r.tree.NumKeys())
	}
}

func TestLSMFlushAndCompaction(t *testing.T) {
	// Small memtable forces flushes; L0Limit forces compaction.
	r := newRig(t, Config{Persistence: core.WeakPersistence, MemtableBytes: 4 << 10, L0Limit: 3})
	const n = 3000
	rng := sim.NewRNG(9)
	model := map[uint64]string{}
	r.spawn(func(th *simos.Thread) {
		for i := 0; i < n; i++ {
			k := rng.Uint64n(5000)
			v := fmt.Sprintf("v%d-%d", k, i)
			if err := r.tree.Put(th, k, []byte(v)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			model[k] = v
		}
	})
	r.drive(t)
	if r.tree.Flushes == 0 || r.tree.Compactions == 0 {
		t.Fatalf("flushes=%d compactions=%d; config did not exercise them", r.tree.Flushes, r.tree.Compactions)
	}
	// Every key readable with its latest value.
	bad := 0
	r.spawn(func(th *simos.Thread) {
		for k, v := range model {
			got, found, err := r.tree.Get(th, k)
			if err != nil || !found || string(got) != v {
				bad++
			}
		}
	})
	r.drive(t)
	if bad > 0 {
		t.Fatalf("%d keys wrong after flush+compaction", bad)
	}
	l0, l1 := r.tree.Levels()
	if l1 == 0 {
		t.Fatalf("levels = (%d, %d); compaction produced no L1", l0, l1)
	}
}

func TestLSMRangeScanAcrossSources(t *testing.T) {
	r := newRig(t, Config{Persistence: core.WeakPersistence, MemtableBytes: 2 << 10, L0Limit: 3})
	r.spawn(func(th *simos.Thread) {
		// Interleave keys so ranges span memtable, L0 and L1.
		for i := 0; i < 1200; i++ {
			k := uint64((i * 7) % 1500)
			r.tree.Put(th, k, []byte(fmt.Sprintf("v%d", k)))
		}
		r.tree.Delete(th, 500)
		pairs, err := r.tree.RangeScan(th, 490, 510, 0)
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		for i := 1; i < len(pairs); i++ {
			if pairs[i].Key <= pairs[i-1].Key {
				t.Error("scan unordered")
				return
			}
		}
		for _, kv := range pairs {
			if kv.Key == 500 {
				t.Error("tombstoned key in scan")
			}
			if string(kv.Value) != fmt.Sprintf("v%d", kv.Key) {
				t.Errorf("key %d value %q", kv.Key, kv.Value)
			}
		}
		// Limit respected.
		limited, _ := r.tree.RangeScan(th, 0, 10000, 5)
		if len(limited) != 5 {
			t.Errorf("limit: %d", len(limited))
		}
	})
	r.drive(t)
}

func TestLSMStrongSyncPerWrite(t *testing.T) {
	r := newRig(t, Config{Persistence: core.StrongPersistence})
	r.spawn(func(th *simos.Thread) {
		for i := 0; i < 40; i++ {
			r.tree.Put(th, uint64(i), []byte("v"))
		}
	})
	r.drive(t)
	st := r.dev.Stats()
	if st.CompletedFlushes < 40 {
		t.Fatalf("flushes = %d; strong LSM must fsync per write", st.CompletedFlushes)
	}
}

func TestLSMWeakDefersAllIO(t *testing.T) {
	r := newRig(t, Config{Persistence: core.WeakPersistence})
	r.spawn(func(th *simos.Thread) {
		for i := 0; i < 200; i++ {
			r.tree.Put(th, uint64(i), []byte("v"))
		}
	})
	r.drive(t)
	if w := r.dev.Stats().CompletedWrites; w > 5 {
		t.Fatalf("weak LSM wrote %d blocks without sync", w)
	}
	r.spawn(func(th *simos.Thread) {
		if err := r.tree.Sync(th); err != nil {
			t.Errorf("sync: %v", err)
		}
	})
	r.drive(t)
	if r.dev.Stats().CompletedWrites == 0 {
		t.Fatal("sync wrote nothing")
	}
}

func TestLSMConcurrentWriters(t *testing.T) {
	r := newRig(t, Config{Persistence: core.WeakPersistence, MemtableBytes: 8 << 10})
	const workers = 6
	for w := 0; w < workers; w++ {
		w := w
		r.spawn(func(th *simos.Thread) {
			for i := 0; i < 200; i++ {
				k := uint64(w*100000 + i)
				if err := r.tree.Put(th, k, []byte("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		})
	}
	r.drive(t)
	if r.tree.NumKeys() != workers*200 {
		t.Fatalf("numKeys = %d", r.tree.NumKeys())
	}
	missing := 0
	r.spawn(func(th *simos.Thread) {
		for w := 0; w < workers; w++ {
			for i := 0; i < 200; i++ {
				if _, found, _ := r.tree.Get(th, uint64(w*100000+i)); !found {
					missing++
				}
			}
		}
	})
	r.drive(t)
	if missing > 0 {
		t.Fatalf("%d keys missing", missing)
	}
}

// Property: LSM behaves like a map under random put/delete/get sequences.
func TestLSMModelProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := newRig(nil, Config{Persistence: core.WeakPersistence, MemtableBytes: 2 << 10, L0Limit: 2, Seed: seed})
		rng := sim.NewRNG(seed)
		model := map[uint64][]byte{}
		ok := true
		r.spawn(func(th *simos.Thread) {
			for i := 0; i < 400; i++ {
				k := rng.Uint64n(300)
				switch rng.Intn(3) {
				case 0, 1:
					v := []byte{byte(rng.Uint64())}
					r.tree.Put(th, k, v)
					model[k] = v
				case 2:
					r.tree.Delete(th, k)
					delete(model, k)
				}
				if rng.Intn(10) == 0 {
					got, found, _ := r.tree.Get(th, k)
					want, exists := model[k]
					if found != exists || (found && got[0] != want[0]) {
						ok = false
						return
					}
				}
			}
		})
		for i := 0; i < 200_000_000; i++ {
			any := false
			for _, l := range r.live {
				if l {
					any = true
					break
				}
			}
			if !any {
				break
			}
			if !r.eng.Step() {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
