package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

// rig wires an engine, a simulated 8-core machine, a device and a tree
// with its working thread, mirroring how the experiment harness runs.
type rig struct {
	t    *testing.T
	eng  *sim.Engine
	os   *simos.Sched
	dev  *nvme.SimDevice
	tree *Tree
	th   *simos.Thread
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{t: t}
	r.eng = sim.NewEngine()
	r.os = simos.New(r.eng, simos.Config{})
	r.dev = nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 11})
	meta, err := Format(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	r.attach(t, cfg, meta)
	return r
}

// attach spawns a working thread running a tree over r.dev with meta.
func (r *rig) attach(t *testing.T, cfg Config, meta *storage.Meta) {
	r.th = r.os.Spawn("patree", func(*simos.Thread) { r.tree.Run() })
	tree, err := New(r.dev, cfg, SimEnv{T: r.th}, meta)
	if err != nil {
		t.Fatal(err)
	}
	r.tree = tree
	t.Cleanup(func() {
		r.tree.Stop()
		r.eng.RunFor(time.Second)
	})
}

// do admits one op and drives the simulation until it completes.
func (r *rig) do(op *Op) Result {
	r.t.Helper()
	done := false
	op.Done = func(*Op) { done = true }
	r.eng.After(0, func() { r.tree.Admit(op) })
	for !done && r.eng.Step() {
	}
	if !done {
		r.t.Fatal("operation never completed")
	}
	return op.Res
}

// doAll admits ops together (interleaved execution) and waits for all.
func (r *rig) doAll(ops []*Op) {
	r.t.Helper()
	remaining := len(ops)
	for _, op := range ops {
		op.Done = func(*Op) { remaining-- }
	}
	r.eng.After(0, func() {
		for _, op := range ops {
			r.tree.Admit(op)
		}
	})
	for remaining > 0 && r.eng.Step() {
	}
	if remaining > 0 {
		r.t.Fatalf("%d operations never completed", remaining)
	}
}

func (r *rig) insert(key uint64, val string) Result { return r.do(NewInsert(key, []byte(val), nil)) }
func (r *rig) search(key uint64) Result             { return r.do(NewSearch(key, nil)) }
func (r *rig) delete(key uint64) Result             { return r.do(NewDelete(key, nil)) }

// collectFromDevice walks the on-device image (no buffers) and returns
// all pairs, verifying structural invariants along the way.
func collectFromDevice(t *testing.T, dev *nvme.SimDevice, meta *storage.Meta) map[uint64][]byte {
	t.Helper()
	read := func(id storage.PageID) *storage.Node {
		buf := make([]byte, storage.PageSize)
		dev.ReadAt(uint64(id), buf)
		if !storage.VerifyPage(id, buf) {
			t.Fatalf("page %d fails verification", id)
		}
		n, err := storage.DecodeNode(id, buf)
		if err != nil {
			t.Fatalf("decode page %d: %v", id, err)
		}
		return n
	}
	// Descend to the leftmost leaf, checking levels decrease.
	id := meta.Root
	n := read(id)
	if int(n.Level)+1 != int(meta.Height) {
		t.Fatalf("root level %d vs height %d", n.Level, meta.Height)
	}
	for !n.IsLeaf() {
		if len(n.Children) != n.NumKeys()+1 {
			t.Fatalf("inner %d: %d keys, %d children", n.ID, n.NumKeys(), len(n.Children))
		}
		child := read(n.Children[0])
		if child.Level != n.Level-1 {
			t.Fatalf("level skip: %d -> %d", n.Level, child.Level)
		}
		n = child
	}
	// Walk the leaf chain.
	out := map[uint64][]byte{}
	var last uint64
	first := true
	for {
		for i, k := range n.Keys {
			if !first && k <= last {
				t.Fatalf("keys not strictly increasing: %d after %d", k, last)
			}
			first = false
			last = k
			out[k] = append([]byte(nil), n.Vals[i]...)
		}
		if n.Next == storage.NilPage {
			break
		}
		n = read(n.Next)
		if !n.IsLeaf() {
			t.Fatalf("leaf chain reached non-leaf %d", n.ID)
		}
	}
	return out
}

func TestBasicInsertSearch(t *testing.T) {
	r := newRig(t, Config{})
	if res := r.insert(42, "answer"); res.Err != nil || res.Found {
		t.Fatalf("insert: %+v", res)
	}
	res := r.search(42)
	if res.Err != nil || !res.Found || string(res.Value) != "answer" {
		t.Fatalf("search: %+v", res)
	}
	if res := r.search(43); res.Found {
		t.Fatal("found missing key")
	}
	if res.Latency() <= 0 {
		t.Fatal("non-positive latency")
	}
}

func TestInsertOverwrite(t *testing.T) {
	r := newRig(t, Config{})
	r.insert(1, "a")
	if res := r.insert(1, "b"); !res.Found {
		t.Fatal("overwrite not reported")
	}
	if res := r.search(1); string(res.Value) != "b" {
		t.Fatalf("value = %q", res.Value)
	}
	if r.tree.NumKeys() != 1 {
		t.Fatalf("numKeys = %d", r.tree.NumKeys())
	}
}

func TestUpdateSemantics(t *testing.T) {
	r := newRig(t, Config{})
	if res := r.do(NewUpdate(5, []byte("x"), nil)); res.Found {
		t.Fatal("update of absent key reported found")
	}
	if res := r.search(5); res.Found {
		t.Fatal("update of absent key inserted it")
	}
	r.insert(5, "v1")
	if res := r.do(NewUpdate(5, []byte("v2"), nil)); !res.Found {
		t.Fatal("update of present key not found")
	}
	if res := r.search(5); string(res.Value) != "v2" {
		t.Fatalf("value = %q", res.Value)
	}
}

func TestDelete(t *testing.T) {
	r := newRig(t, Config{})
	r.insert(7, "seven")
	if res := r.delete(7); !res.Found {
		t.Fatal("delete did not find key")
	}
	if res := r.search(7); res.Found {
		t.Fatal("deleted key still present")
	}
	if res := r.delete(7); res.Found {
		t.Fatal("double delete reported found")
	}
	if r.tree.NumKeys() != 0 {
		t.Fatalf("numKeys = %d", r.tree.NumKeys())
	}
}

func TestGrowthThroughSplitsAndModelCheck(t *testing.T) {
	r := newRig(t, Config{})
	// Enough sequential+shuffled inserts to force multi-level splits.
	const n = 3000
	rng := sim.NewRNG(5)
	model := map[uint64]string{}
	for i := 0; i < n; i++ {
		k := rng.Uint64n(10 * n)
		v := fmt.Sprintf("v%d", k)
		r.insert(k, v)
		model[k] = v
	}
	if r.tree.Height() < 3 {
		t.Fatalf("height = %d, want >= 3 after %d inserts", r.tree.Height(), n)
	}
	if r.tree.NumKeys() != uint64(len(model)) {
		t.Fatalf("numKeys = %d, want %d", r.tree.NumKeys(), len(model))
	}
	// Spot-check membership.
	for k, v := range model {
		res := r.search(k)
		if !res.Found || string(res.Value) != v {
			t.Fatalf("key %d: %+v", k, res)
		}
	}
	// Strong persistence: the device image must already contain every pair.
	got := collectFromDevice(t, r.dev, &storage.Meta{
		Root: r.tree.rootID, Height: uint8(r.tree.Height()),
	})
	if len(got) != len(model) {
		t.Fatalf("device has %d keys, want %d", len(got), len(model))
	}
	for k, v := range model {
		if string(got[k]) != v {
			t.Fatalf("device key %d = %q, want %q", k, got[k], v)
		}
	}
}

func TestSequentialAndReverseInserts(t *testing.T) {
	for name, gen := range map[string]func(i int) uint64{
		"ascending":  func(i int) uint64 { return uint64(i) },
		"descending": func(i int) uint64 { return uint64(2000 - i) },
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, Config{})
			for i := 0; i < 800; i++ {
				r.insert(gen(i), "v")
			}
			if r.tree.NumKeys() != 800 {
				t.Fatalf("numKeys = %d", r.tree.NumKeys())
			}
			for i := 0; i < 800; i++ {
				if !r.search(gen(i)).Found {
					t.Fatalf("missing key %d", gen(i))
				}
			}
		})
	}
}

func TestRangeScan(t *testing.T) {
	r := newRig(t, Config{})
	for i := 0; i < 500; i++ {
		r.insert(uint64(i*2), fmt.Sprintf("v%d", i*2)) // even keys 0..998
	}
	res := r.do(NewRange(100, 120, 0, nil))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := []uint64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120}
	if len(res.Pairs) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(res.Pairs), len(want))
	}
	for i, kv := range res.Pairs {
		if kv.Key != want[i] || string(kv.Value) != fmt.Sprintf("v%d", want[i]) {
			t.Fatalf("pair %d = %+v", i, kv)
		}
	}
	// Limit.
	res = r.do(NewRange(0, 1<<62, 7, nil))
	if len(res.Pairs) != 7 {
		t.Fatalf("limited scan returned %d", len(res.Pairs))
	}
	// Cross-leaf full scan.
	res = r.do(NewRange(0, 1<<62, 0, nil))
	if len(res.Pairs) != 500 {
		t.Fatalf("full scan returned %d", len(res.Pairs))
	}
	if !sort.SliceIsSorted(res.Pairs, func(i, j int) bool { return res.Pairs[i].Key < res.Pairs[j].Key }) {
		t.Fatal("scan out of order")
	}
	// Empty range.
	res = r.do(NewRange(101, 101, 0, nil))
	if len(res.Pairs) != 0 {
		t.Fatalf("empty range returned %d", len(res.Pairs))
	}
}

func TestValueTooLarge(t *testing.T) {
	r := newRig(t, Config{})
	res := r.do(NewInsert(1, make([]byte, storage.MaxValueSize+1), nil))
	if res.Err != ErrValueTooLarge {
		t.Fatalf("err = %v", res.Err)
	}
	// Tree still healthy.
	r.insert(1, "ok")
	if !r.search(1).Found {
		t.Fatal("tree broken after oversized insert")
	}
}

func TestMaxSizeValuesSplitCorrectly(t *testing.T) {
	r := newRig(t, Config{})
	val := bytes.Repeat([]byte{0xAB}, storage.MaxValueSize)
	for i := 0; i < 50; i++ {
		res := r.do(NewInsert(uint64(i), val, nil))
		if res.Err != nil {
			t.Fatalf("insert %d: %v", i, res.Err)
		}
	}
	for i := 0; i < 50; i++ {
		res := r.search(uint64(i))
		if !res.Found || len(res.Value) != storage.MaxValueSize {
			t.Fatalf("key %d: found=%v len=%d", i, res.Found, len(res.Value))
		}
	}
}

func TestMixedValueSizes(t *testing.T) {
	r := newRig(t, Config{})
	rng := sim.NewRNG(9)
	model := map[uint64]int{}
	for i := 0; i < 1200; i++ {
		k := rng.Uint64n(5000)
		sz := rng.Intn(storage.MaxValueSize + 1)
		res := r.do(NewInsert(k, bytes.Repeat([]byte{byte(k)}, sz), nil))
		if res.Err != nil {
			t.Fatalf("insert %d (size %d): %v", k, sz, res.Err)
		}
		model[k] = sz
	}
	for k, sz := range model {
		res := r.search(k)
		if !res.Found || len(res.Value) != sz {
			t.Fatalf("key %d: found=%v len=%d want %d", k, res.Found, len(res.Value), sz)
		}
	}
}

func TestInterleavedConcurrentOps(t *testing.T) {
	// Many ops admitted at once: exercises interleaving, latch queueing
	// and out-of-order completion.
	r := newRig(t, Config{Prioritized: true})
	var ops []*Op
	for i := 0; i < 400; i++ {
		ops = append(ops, NewInsert(uint64(i%97), []byte(fmt.Sprintf("v%d", i)), nil))
		ops = append(ops, NewSearch(uint64(i%97), nil))
	}
	r.doAll(ops)
	for _, op := range ops {
		if op.Res.Err != nil {
			t.Fatalf("op error: %v", op.Res.Err)
		}
	}
	if r.tree.NumKeys() != 97 {
		t.Fatalf("numKeys = %d", r.tree.NumKeys())
	}
	st := r.tree.StatsSnapshot()
	if st.TotalOps() != 800 {
		t.Fatalf("completed = %d", st.TotalOps())
	}
}

func TestStrongPersistenceDurableOnComplete(t *testing.T) {
	// In strong mode every acknowledged update is on the device: simulate
	// a crash by walking the raw device right after completions, with the
	// tree (and its buffer) discarded.
	r := newRig(t, Config{Persistence: StrongPersistence, BufferPages: 64})
	for i := 0; i < 300; i++ {
		r.insert(uint64(i), fmt.Sprintf("v%d", i))
	}
	meta := &storage.Meta{Root: r.tree.rootID, Height: uint8(r.tree.Height())}
	got := collectFromDevice(t, r.dev, meta)
	if len(got) != 300 {
		t.Fatalf("device has %d keys after crash, want 300", len(got))
	}
}

func TestWeakPersistenceSyncSemantics(t *testing.T) {
	r := newRig(t, Config{Persistence: WeakPersistence, BufferPages: 1024})
	for i := 0; i < 300; i++ {
		r.insert(uint64(i), fmt.Sprintf("v%d", i))
	}
	// Reads still served correctly pre-sync (from the buffer).
	if res := r.search(250); !res.Found || string(res.Value) != "v250" {
		t.Fatalf("pre-sync search: %+v", res)
	}
	// Sync, then the device image must be complete and the meta durable.
	if res := r.do(NewSync(nil)); res.Err != nil {
		t.Fatal(res.Err)
	}
	meta, err := ReadMeta(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumKeys != 300 || meta.SyncEpoch != 1 {
		t.Fatalf("meta = %+v", meta)
	}
	got := collectFromDevice(t, r.dev, meta)
	if len(got) != 300 {
		t.Fatalf("device has %d keys after sync, want 300", len(got))
	}
	for i := 0; i < 300; i++ {
		if string(got[uint64(i)]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d = %q", i, got[uint64(i)])
		}
	}
}

func TestWeakPersistenceMergesWrites(t *testing.T) {
	r := newRig(t, Config{Persistence: WeakPersistence, BufferPages: 1024})
	for i := 0; i < 200; i++ {
		r.insert(1, fmt.Sprintf("v%d", i)) // same key, same page
	}
	st := r.tree.BufferStats()
	if st.WriteMerges < 150 {
		t.Fatalf("write merges = %d, want most of 200", st.WriteMerges)
	}
	dst := r.dev.Stats()
	if dst.CompletedWrites > 20 {
		t.Fatalf("device writes = %d; weak mode should have absorbed them", dst.CompletedWrites)
	}
}

func TestReopenAfterSync(t *testing.T) {
	r := newRig(t, Config{Persistence: WeakPersistence, BufferPages: 1024})
	for i := 0; i < 500; i++ {
		r.insert(uint64(i*3), fmt.Sprintf("v%d", i*3))
	}
	r.do(NewSync(nil))
	r.tree.Stop()
	r.eng.RunFor(time.Second)

	// Reopen from the device image with a fresh tree and working thread.
	meta, err := ReadMeta(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	r.attach(t, Config{Persistence: WeakPersistence, BufferPages: 1024}, meta)
	for _, k := range []uint64{0, 3, 999, 1497} {
		res := r.search(k)
		if k%3 == 0 && k < 1500 {
			if !res.Found || string(res.Value) != fmt.Sprintf("v%d", k) {
				t.Fatalf("reopened key %d: %+v", k, res)
			}
		} else if res.Found {
			t.Fatalf("reopened tree has phantom key %d", k)
		}
	}
	// And it accepts new writes.
	if res := r.insert(1_000_000, "fresh"); res.Err != nil {
		t.Fatal(res.Err)
	}
	if !r.search(1_000_000).Found {
		t.Fatal("insert after reopen lost")
	}
}

func TestBufferDisabledStillCorrect(t *testing.T) {
	for _, p := range []Persistence{StrongPersistence, WeakPersistence} {
		t.Run(p.String(), func(t *testing.T) {
			r := newRig(t, Config{Persistence: p, BufferPages: 0})
			for i := 0; i < 200; i++ {
				r.insert(uint64(i), "v")
			}
			for i := 0; i < 200; i++ {
				if !r.search(uint64(i)).Found {
					t.Fatalf("missing key %d", i)
				}
			}
		})
	}
}

func TestSmallBufferEvictionPath(t *testing.T) {
	// A 4-page weak buffer forces constant dirty evictions and write-backs.
	r := newRig(t, Config{Persistence: WeakPersistence, BufferPages: 4})
	rng := sim.NewRNG(3)
	model := map[uint64]bool{}
	for i := 0; i < 800; i++ {
		k := rng.Uint64n(2000)
		r.insert(k, "v")
		model[k] = true
	}
	for k := range model {
		if !r.search(k).Found {
			t.Fatalf("missing key %d after evictions", k)
		}
	}
	if r.dev.Stats().CompletedWrites == 0 {
		t.Fatal("tiny buffer produced no write-backs")
	}
}

// TestColdGetBufferAccounting pins what one lookup counts: each page a
// Get visits is one buffer lookup, a hit or a miss, and the miss that
// sends a demand read is not counted again (as a hit) when the read lands.
// For each persistence mode, on a reopened tree of height h, a cold Get
// counts h misses and a Get into the next leaf 1 miss and h-1 hits.
func TestColdGetBufferAccounting(t *testing.T) {
	for _, p := range []Persistence{StrongPersistence, WeakPersistence} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := Config{Persistence: p, BufferPages: 1024}
			r := newRig(t, cfg)
			for i := 0; i < 3000; i++ {
				r.insert(uint64(i), fmt.Sprintf("value-%d", i))
			}
			if res := r.do(NewSync(nil)); res.Err != nil {
				t.Fatal(res.Err)
			}
			r.tree.Stop()
			r.eng.RunFor(time.Second)
			meta, err := ReadMeta(r.dev)
			if err != nil {
				t.Fatal(err)
			}
			h := int(meta.Height)
			if h < 3 {
				t.Fatalf("height %d: want an inner level between root and leaves", h)
			}
			// The first key of the leaf after the leftmost one: its path
			// shares every inner page with key 0's.
			read := func(id storage.PageID) *storage.Node {
				buf := make([]byte, storage.PageSize)
				r.dev.ReadAt(uint64(id), buf)
				if !storage.VerifyPage(id, buf) {
					t.Fatalf("page %d fails verification", id)
				}
				n, err := storage.DecodeNode(id, buf)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			n := read(meta.Root)
			for !n.IsLeaf() {
				n = read(n.Children[0])
			}
			next := read(n.Next).Keys[0]

			r.attach(t, cfg, meta)
			for _, c := range []struct {
				key          uint64
				hits, misses uint64
			}{{0, 0, uint64(h)}, {next, uint64(h - 1), 1}} {
				r.tree.ResetStats()
				if res := r.search(c.key); !res.Found {
					t.Fatalf("key %d not found", c.key)
				}
				if st := r.tree.BufferStats(); st.Hits != c.hits || st.Misses != c.misses {
					t.Errorf("Get(%d): %d hits, %d misses; want %d, %d", c.key, st.Hits, st.Misses, c.hits, c.misses)
				}
			}
		})
	}
}

// totalLatency merges every kind's end-to-end latency histogram.
func totalLatency(st Stats) *metrics.Histogram {
	h := metrics.NewHistogram()
	st.Stages.MergedInto(metrics.StageTotal, h)
	return h
}

func TestStatsAccounting(t *testing.T) {
	r := newRig(t, Config{})
	for i := 0; i < 50; i++ {
		r.insert(uint64(i), "v")
	}
	for i := 0; i < 30; i++ {
		r.search(uint64(i))
	}
	st := r.tree.StatsSnapshot()
	if st.Completed[KindInsert] != 50 || st.Completed[KindSearch] != 30 {
		t.Fatalf("completed = %v", st.Completed)
	}
	if n := totalLatency(st).Count(); n != 80 {
		t.Fatalf("latency count = %d", n)
	}
	if st.ReadsIssued == 0 || st.WritesIssued == 0 || st.Probes == 0 {
		t.Fatalf("io stats: %+v", st)
	}
	r.tree.ResetStats()
	if r.tree.StatsSnapshot().TotalOps() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCPUChargedByCategory(t *testing.T) {
	r := newRig(t, Config{})
	for i := 0; i < 100; i++ {
		r.insert(uint64(i), "v")
	}
	cpu := r.th.CPU
	for _, c := range []metrics.CPUCategory{metrics.CatRealWork, metrics.CatSync, metrics.CatNVMe, metrics.CatSched} {
		if cpu.Get(c) == 0 {
			t.Fatalf("category %v uncharged", c)
		}
	}
}

func TestAdmitAfterStop(t *testing.T) {
	r := newRig(t, Config{})
	r.insert(1, "v")
	r.tree.Stop()
	rejected := false
	op := NewSearch(1, func(o *Op) { rejected = o.Res.Err == ErrStopped })
	r.tree.Admit(op)
	if !rejected {
		t.Fatal("op admitted after stop")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, time.Duration) {
		eng := sim.NewEngine()
		osched := simos.New(eng, simos.Config{})
		dev := nvme.NewSimDevice(eng, nvme.SimConfig{Seed: 21})
		meta, _ := Format(dev)
		var tree *Tree
		th := osched.Spawn("patree", func(*simos.Thread) { tree.Run() })
		tree, _ = New(dev, Config{Prioritized: true}, SimEnv{T: th}, meta)
		rng := sim.NewRNG(77)
		doneCount := 0
		eng.After(0, func() {
			for i := 0; i < 300; i++ {
				tree.Admit(NewInsert(rng.Uint64n(1000), []byte("v"), func(*Op) { doneCount++ }))
			}
		})
		for doneCount < 300 && eng.Step() {
		}
		st := tree.StatsSnapshot()
		tree.Stop()
		eng.RunFor(time.Second)
		return st.TotalOps(), totalLatency(st).Mean()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", a1, b1, a2, b2)
	}
}
