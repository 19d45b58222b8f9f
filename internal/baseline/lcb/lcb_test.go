package lcb

import (
	"fmt"
	"testing"

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
	io   syncbtree.IO
	tree *Tree
	live map[*simos.Thread]bool
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{live: map[*simos.Thread]bool{}}
	r.eng = sim.NewEngine()
	r.os = simos.New(r.eng, simos.Config{})
	r.dev = nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 5})
	meta, err := core.Format(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	r.io = NewIO(r.dev, r.os)
	r.tree = New(r.os, r.io, r.dev, cfg, meta)
	return r
}

// NewIO picks the dedicated discipline for tests.
func NewIO(dev nvme.Device, sched *simos.Sched) syncbtree.IO {
	return syncbtree.NewDedicated(dev, sched)
}

func (r *rig) spawn(name string, body func(*simos.Thread)) {
	var th *simos.Thread
	th = r.os.Spawn(name, func(tt *simos.Thread) {
		defer func() { r.live[tt] = false }()
		body(tt)
	})
	r.live[th] = true
}

func (r *rig) drive(t *testing.T) {
	t.Helper()
	for i := 0; i < 100_000_000; i++ {
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

func TestLCBBasicOps(t *testing.T) {
	r := newRig(t, Config{Persistence: core.WeakPersistence, CachePages: 4096})
	r.spawn("w", func(th *simos.Thread) {
		for i := 0; i < 300; i++ {
			if _, err := r.tree.Insert(th, uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		for i := 0; i < 300; i++ {
			val, found, _ := r.tree.Search(th, uint64(i))
			if !found || string(val) != fmt.Sprintf("v%d", i) {
				t.Errorf("search %d: %q %v", i, val, found)
				return
			}
		}
		pairs, _ := r.tree.RangeScan(th, 10, 19, 0)
		if len(pairs) != 10 {
			t.Errorf("range: %d", len(pairs))
		}
		if ok, _ := r.tree.Delete(th, 5); !ok {
			t.Error("delete failed")
		}
	})
	r.drive(t)
	if r.tree.NumKeys() != 299 {
		t.Fatalf("numKeys = %d", r.tree.NumKeys())
	}
}

func TestLCBStrongFlushesPerUpdate(t *testing.T) {
	r := newRig(t, Config{Persistence: core.StrongPersistence, CachePages: 4096})
	r.spawn("w", func(th *simos.Thread) {
		for i := 0; i < 50; i++ {
			r.tree.Insert(th, uint64(i), []byte("v"))
		}
	})
	r.drive(t)
	st := r.dev.Stats()
	// Strong mode: >= one log write and one flush per update.
	if st.CompletedFlushes < 50 {
		t.Fatalf("flushes = %d, want >= 50", st.CompletedFlushes)
	}
	if st.CompletedWrites < 50 {
		t.Fatalf("writes = %d, want >= 50", st.CompletedWrites)
	}
}

func TestLCBWeakDefersLogWrites(t *testing.T) {
	r := newRig(t, Config{Persistence: core.WeakPersistence, CachePages: 4096})
	r.spawn("w", func(th *simos.Thread) {
		for i := 0; i < 200; i++ {
			r.tree.Insert(th, uint64(i), []byte("v"))
		}
	})
	r.drive(t)
	preSync := r.dev.Stats().CompletedWrites
	if preSync > 20 {
		t.Fatalf("weak mode wrote %d blocks before sync", preSync)
	}
	r.spawn("s", func(th *simos.Thread) {
		if err := r.tree.Sync(th); err != nil {
			t.Errorf("sync: %v", err)
		}
	})
	r.drive(t)
	if r.dev.Stats().CompletedWrites <= preSync {
		t.Fatal("sync wrote nothing")
	}
}

// TestLCBSyncFlushesOnce: a Sync writes the log and the dirty pages and
// then sends exactly one flush command; the inner tree's Sync already ends
// in it.
func TestLCBSyncFlushesOnce(t *testing.T) {
	r := newRig(t, Config{Persistence: core.WeakPersistence, CachePages: 4096})
	r.spawn("w", func(th *simos.Thread) {
		for i := 0; i < 100; i++ {
			r.tree.Insert(th, uint64(i), []byte("v"))
		}
	})
	r.drive(t)
	for round := 1; round <= 3; round++ {
		before := r.dev.Stats().CompletedFlushes
		r.spawn("s", func(th *simos.Thread) {
			if err := r.tree.Sync(th); err != nil {
				t.Errorf("sync: %v", err)
			}
		})
		r.drive(t)
		if n := r.dev.Stats().CompletedFlushes - before; n != 1 {
			t.Fatalf("sync %d sent %d flush commands, want 1", round, n)
		}
	}
}

func TestLCBRecoveryReplaysLog(t *testing.T) {
	cfg := Config{Persistence: core.StrongPersistence, CachePages: 4096}
	r := newRig(t, cfg)
	r.spawn("w", func(th *simos.Thread) {
		for i := 0; i < 120; i++ {
			r.tree.Insert(th, uint64(i), []byte(fmt.Sprintf("v%d", i)))
		}
		r.tree.Delete(th, 7)
	})
	r.drive(t)
	// Crash: discard the tree (its pages were never flushed — only the
	// log is durable) and recover on a fresh tree from the last
	// checkpoint (the Format-time empty tree) plus the log.
	recs, err := RecoverRecords(r.dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 121 {
		t.Fatalf("recovered %d records, want 121", len(recs))
	}
	meta, err := core.ReadMeta(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(r.os, r.io, r.dev, cfg, meta)
	r.spawn("replay", func(th *simos.Thread) {
		if err := Replay(th, fresh, recs); err != nil {
			t.Errorf("replay: %v", err)
			return
		}
		for i := 0; i < 120; i++ {
			val, found, _ := fresh.Search(th, uint64(i))
			if i == 7 {
				if found {
					t.Error("deleted key resurrected")
				}
				continue
			}
			if !found || string(val) != fmt.Sprintf("v%d", i) {
				t.Errorf("key %d lost in recovery: %q %v", i, val, found)
				return
			}
		}
	})
	r.drive(t)
	if fresh.NumKeys() != 119 {
		t.Fatalf("recovered numKeys = %d", fresh.NumKeys())
	}
}
