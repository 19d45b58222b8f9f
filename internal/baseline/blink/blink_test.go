package blink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"github.com/patree/patree/internal/baseline/syncbtree"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/fault"
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
	live map[*simos.Thread]bool
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{live: map[*simos.Thread]bool{}}
	r.eng = sim.NewEngine()
	r.os = simos.New(r.eng, simos.Config{})
	r.dev = nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 3})
	io := syncbtree.NewDedicated(r.dev, r.os)
	r.os.Spawn("fmt", func(th *simos.Thread) {
		tree, err := Format(th, r.os, io, cfg)
		if err != nil {
			t.Errorf("format: %v", err)
			return
		}
		r.tree = tree
	})
	r.eng.RunFor(10 * time.Millisecond)
	if r.tree == nil {
		t.Fatal("format did not finish")
	}
	return r
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
		anyLive := false
		for _, l := range r.live {
			if l {
				anyLive = true
				break
			}
		}
		if !anyLive {
			return
		}
		if !r.eng.Step() {
			t.Fatal("deadlock: engine drained with live workers")
		}
	}
	t.Fatal("step budget exhausted")
}

func TestBlinkNodeRoundTrip(t *testing.T) {
	n := &node{id: 5, leaf: true, right: 9, high: 100}
	n.keys = []uint64{1, 2, 3}
	n.vals = [][]byte{[]byte("a"), {}, []byte("ccc")}
	got := decode(5, n.encode())
	if !got.leaf || got.right != 9 || got.high != 100 || len(got.keys) != 3 {
		t.Fatalf("decoded %+v", got)
	}
	if string(got.vals[2]) != "ccc" {
		t.Fatalf("vals = %q", got.vals)
	}
	inner := &node{id: 6, level: 1, right: 7, high: 50,
		keys: []uint64{10, 20}, kids: []storage.PageID{1, 2, 3}}
	gi := decode(6, inner.encode())
	if gi.leaf || gi.kids[2] != 3 || gi.keys[1] != 20 {
		t.Fatalf("inner = %+v", gi)
	}
	// Corruption rejected.
	if !verify(n.encode()) {
		t.Fatal("sealed node fails verify")
	}
	buf := n.encode()
	buf[30] ^= 1
	if verify(buf) {
		t.Fatal("corrupt node verifies")
	}
}

// TestBlinkVerifyRefusesShapes: verify is the one check Blink makes
// before a read is cached and decoded, so a sealed page decode would trip
// on is refused there.
func TestBlinkVerifyRefusesShapes(t *testing.T) {
	leaf := &node{id: 5, leaf: true, keys: []uint64{1, 2}, vals: [][]byte{[]byte("a"), []byte("b")}}
	inner := &node{id: 6, level: 1, keys: []uint64{10, 20}, kids: []storage.PageID{1, 2, 3}}
	for _, c := range []struct {
		name string
		n    *node
		edit func([]byte)
	}{
		{"inner nkeys 1000", inner, func(b []byte) { binary.LittleEndian.PutUint16(b[2:4], 1000) }},
		{"inner nkeys past capacity", inner, func(b []byte) { binary.LittleEndian.PutUint16(b[2:4], maxInnerKeys+1) }},
		{"leaf nkeys 1000", leaf, func(b []byte) { binary.LittleEndian.PutUint16(b[2:4], 1000) }},
		{"slot past the page end", leaf, func(b []byte) { binary.LittleEndian.PutUint16(b[headerSize+8:], pageSize) }},
		{"slot over the slot array", leaf, func(b []byte) { binary.LittleEndian.PutUint16(b[headerSize+8:], headerSize) }},
		{"values that overlap past the page", leaf, func(b []byte) {
			for off := headerSize; off < headerSize+2*slotSize; off += slotSize {
				binary.LittleEndian.PutUint16(b[off+8:], pageSize-300)
				binary.LittleEndian.PutUint16(b[off+10:], 300)
			}
		}},
		{"kind 0", leaf, func(b []byte) { b[0] = 0 }},
	} {
		buf := c.n.encode()
		c.edit(buf)
		binary.LittleEndian.PutUint32(buf[20:24], 0)
		binary.LittleEndian.PutUint32(buf[20:24], crc32.Checksum(buf, crcTable))
		if verify(buf) {
			t.Errorf("%s: sealed page verifies", c.name)
		}
	}
}

// TestFaultBitRotIsNotCached reads a loaded tree through a cold cache
// over a fault wrapper that rots the first read: the op that reads the
// rotten page fails, and since the page was refused rather than cached,
// the next op on the same key reads it again and succeeds.
func TestFaultBitRotIsNotCached(t *testing.T) {
	r := newRig(t, Config{})
	r.spawn("load", func(th *simos.Thread) {
		for i := 0; i < 200; i++ {
			if _, err := r.tree.Insert(th, uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
	r.drive(t)
	// The loaded tree again, behind an empty cache and the fault wrapper.
	fd := fault.New(r.dev, fault.Config{Seed: 1})
	cold := *r.tree
	cold.io = syncbtree.NewDedicated(fd, r.os)
	cold.cache = syncbtree.NewCache(64, cold.io)
	r.spawn("read", func(th *simos.Thread) {
		fd.SetProbs(fault.Probs{BitRot: 1})
		if _, _, err := cold.Search(th, 42); !errors.Is(err, ErrCorrupt) {
			t.Errorf("search over a rotten read: err = %v, want ErrCorrupt", err)
		}
		fd.SetProbs(fault.Probs{})
		if v, found, err := cold.Search(th, 42); err != nil || !found || string(v) != "v42" {
			t.Errorf("search after the rotten read: %q %v %v", v, found, err)
		}
	})
	r.drive(t)
	if n := fd.Counts().BitRots; n != 1 {
		t.Fatalf("%d reads rotted, want 1", n)
	}
}

func TestBlinkBasicOps(t *testing.T) {
	r := newRig(t, Config{})
	r.spawn("w", func(th *simos.Thread) {
		for i := 0; i < 500; i++ {
			if _, err := r.tree.Insert(th, uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 500; i++ {
			val, found, err := r.tree.Search(th, uint64(i))
			if err != nil || !found || string(val) != fmt.Sprintf("v%d", i) {
				t.Errorf("search %d: %q %v %v", i, val, found, err)
				return
			}
		}
		if _, found, _ := r.tree.Search(th, 99999); found {
			t.Error("phantom key")
		}
		pairs, err := r.tree.RangeScan(th, 100, 149, 0)
		if err != nil || len(pairs) != 50 {
			t.Errorf("range: %d, %v", len(pairs), err)
		}
		if ok, _ := r.tree.Delete(th, 10); !ok {
			t.Error("delete failed")
		}
		if _, found, _ := r.tree.Search(th, 10); found {
			t.Error("deleted key found")
		}
		if ok, _ := r.tree.Update(th, 20, []byte("new")); !ok {
			t.Error("update failed")
		}
		if ok, _ := r.tree.Update(th, 77777, []byte("x")); ok {
			t.Error("update of absent key succeeded")
		}
	})
	r.drive(t)
	if r.tree.Height() < 2 {
		t.Fatalf("height = %d", r.tree.Height())
	}
	if r.tree.NumKeys() != 499 {
		t.Fatalf("numKeys = %d", r.tree.NumKeys())
	}
}

func TestBlinkConcurrentInserts(t *testing.T) {
	r := newRig(t, Config{})
	const workers = 8
	const per = 150
	for w := 0; w < workers; w++ {
		w := w
		r.spawn(fmt.Sprintf("w%d", w), func(th *simos.Thread) {
			rng := sim.NewRNG(uint64(w + 1))
			for i := 0; i < per; i++ {
				k := uint64(w*10000) + rng.Uint64n(5000)
				if _, err := r.tree.Insert(th, k, []byte("v")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, found, err := r.tree.Search(th, k); !found || err != nil {
					t.Errorf("readback %d: %v %v", k, found, err)
					return
				}
			}
		})
	}
	r.drive(t)
	// Full scan returns sorted unique keys matching NumKeys.
	var n int
	r.spawn("verify", func(th *simos.Thread) {
		pairs, err := r.tree.RangeScan(th, 0, ^uint64(0), 0)
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		for i := 1; i < len(pairs); i++ {
			if pairs[i].Key <= pairs[i-1].Key {
				t.Errorf("scan unordered at %d", i)
				return
			}
		}
		n = len(pairs)
	})
	r.drive(t)
	if uint64(n) != r.tree.NumKeys() {
		t.Fatalf("scan found %d keys, tree says %d", n, r.tree.NumKeys())
	}
}

func TestBlinkLargeValuesMultiSplit(t *testing.T) {
	r := newRig(t, Config{})
	r.spawn("w", func(th *simos.Thread) {
		big := make([]byte, storage.MaxValueSize)
		for i := 0; i < 60; i++ {
			if _, err := r.tree.Insert(th, uint64(i), big); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 60; i++ {
			val, found, _ := r.tree.Search(th, uint64(i))
			if !found || len(val) != storage.MaxValueSize {
				t.Errorf("key %d: found=%v len=%d", i, found, len(val))
				return
			}
		}
	})
	r.drive(t)
}

func TestBlinkWeakPersistence(t *testing.T) {
	r := newRig(t, Config{Persistence: core.WeakPersistence, CachePages: 4096})
	r.spawn("w", func(th *simos.Thread) {
		for i := 0; i < 200; i++ {
			r.tree.Insert(th, 1, []byte(fmt.Sprintf("v%d", i)))
		}
		if err := r.tree.Sync(th); err != nil {
			t.Errorf("sync: %v", err)
		}
	})
	r.drive(t)
	if w := r.dev.Stats().CompletedWrites; w > 20 {
		t.Fatalf("weak blink issued %d writes for 200 same-key updates", w)
	}
}

func TestBlinkValueTooLarge(t *testing.T) {
	r := newRig(t, Config{})
	r.spawn("w", func(th *simos.Thread) {
		if _, err := r.tree.Insert(th, 1, make([]byte, storage.MaxValueSize+1)); err == nil {
			t.Error("oversized insert accepted")
		}
	})
	r.drive(t)
}
