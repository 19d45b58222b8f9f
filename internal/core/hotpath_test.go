package core

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/sim"
)

// The cached descent's bookkeeping, pinned in counts rather than time: how
// many latches a Get enters in the latch table and how many clock readings
// it costs. Both run a core.Tree over a RAM device on the wall clock, the
// serving profile patree.Open builds.

// hotTree is a running tree over a RAM device bulk-loaded with keys
// 0..n-1, each holding hotValue.
type hotTree struct {
	t    *testing.T
	tree *Tree
	done chan struct{}
}

func newHotTree(t *testing.T, n, bufferPages int, env Env) *hotTree {
	t.Helper()
	dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})
	t.Cleanup(func() { dev.Close() })
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(i), Value: hotValue(uint64(i))}
	}
	meta, err := BulkLoad(dev, pairs, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(dev, Config{
		BufferPages: bufferPages,
		Policy:      &sched.AlwaysProbe{Idle: 20 * time.Microsecond},
		Pipelined:   true,
	}, env, meta)
	if err != nil {
		t.Fatal(err)
	}
	h := &hotTree{t: t, tree: tree, done: make(chan struct{})}
	go func() {
		tree.Run()
		close(h.done)
	}()
	t.Cleanup(func() {
		tree.Stop()
		<-h.done
	})
	return h
}

// hotValue is key k's value: 100 bytes, as the benchmark's records.
func hotValue(k uint64) []byte {
	return fmt.Appendf(make([]byte, 0, 100), "v%099d", k)
}

// onWorker runs f on the working thread, behind everything admitted
// before it.
func (h *hotTree) onWorker(f func()) {
	ran := make(chan struct{})
	h.tree.Admit(NewNop(func(*Op) {
		f()
		close(ran)
	}))
	<-ran
}

// gets runs Gets of keys[0], keys[1], ... in batches of 64 and checks
// every value. Each batch is admitted at once, and the next is admitted
// before the one ahead of it is awaited, so the worker always has work
// and takes no idle passes (whose clock readings no op would own).
func (h *hotTree) gets(keys []uint64) { h.stream(keys, 0) }

// hotBatch is one batch of stream's in flight.
type hotBatch struct {
	keys    []uint64
	ops     []*Op
	pending atomic.Int64
	done    chan struct{}
}

// stream is gets with every writeEvery-th op (0: none) a Put that
// rewrites its key's value, so exclusive latches meet shared ones.
func (h *hotTree) stream(keys []uint64, writeEvery int) {
	h.t.Helper()
	const batch = 64
	var inflight []*hotBatch
	wait := func() {
		b := inflight[0]
		inflight = inflight[1:]
		<-b.done
		for i, o := range b.ops {
			if want := hotValue(b.keys[i]); o.Res.Err != nil || !o.Res.Found || (o.kind == KindSearch && !bytes.Equal(o.Res.Value, want)) {
				h.t.Fatalf("Get(%d) = %q found=%v err=%v, want %q", b.keys[i], o.Res.Value, o.Res.Found, o.Res.Err, want)
			}
		}
	}
	for len(keys) > 0 {
		n := min(batch, len(keys))
		b := &hotBatch{keys: keys[:n], done: make(chan struct{})}
		done := func(*Op) {
			if b.pending.Add(-1) == 0 {
				close(b.done)
			}
		}
		for i, k := range b.keys {
			if writeEvery > 0 && i%writeEvery == 0 {
				b.ops = append(b.ops, NewInsert(k, hotValue(k), done))
			} else {
				b.ops = append(b.ops, NewSearch(k, done))
			}
		}
		b.pending.Store(int64(n))
		h.tree.AdmitBatch(b.ops)
		if inflight = append(inflight, b); len(inflight) == 2 {
			wait()
		}
		keys = keys[n:]
	}
	for len(inflight) > 0 {
		wait()
	}
}

// hotKeys returns count keys below n, stepping by stride (prime to n, so
// every key comes up): a long stride lands consecutive ops on different
// leaves, a short one on the same.
func hotKeys(n, count, stride int) []uint64 {
	keys := make([]uint64, count)
	for i := range keys {
		keys[i] = uint64((i * stride) % n)
	}
	return keys
}

// TestResidentDescentTakesNoLatch: a Get whose every page is resident
// runs its whole descent inside one process call, with no other op in
// between, so none of its latches need enter the latch table. 64 000
// Gets over 4 000 resident keys make no grant at all. With a 64-page
// buffer most Gets miss and suspend, and their latches must then be in
// the table: with a Put among every eight ops, exclusive latches queue
// behind them, grants and waits appear, every value is right and no
// latch is left held once the stream has drained.
func TestResidentDescentTakesNoLatch(t *testing.T) {
	const keys, gets = 4000, 64000
	t.Run("resident", func(t *testing.T) {
		h := newHotTree(t, keys, 4096, NewRealEnv())
		h.gets(hotKeys(keys, keys, 7919)) // warm: every page resident
		var before, after uint64
		h.onWorker(func() { before = h.tree.latches.Grants() })
		h.gets(hotKeys(keys, gets, 7919))
		h.onWorker(func() { after = h.tree.latches.Grants() })
		if per := float64(after-before) / gets; after != before {
			t.Fatalf("%d latch-table grants for %d resident Gets (%.2f per Get), want 0", after-before, gets, per)
		}
	})
	t.Run("missing", func(t *testing.T) {
		h := newHotTree(t, keys, 64, NewRealEnv())
		var grants, waits, reads uint64
		var active int
		h.stream(hotKeys(keys, gets, 1), 8)
		h.onWorker(func() {
			grants = h.tree.latches.Grants()
			waits = h.tree.latches.Waits()
			reads = h.tree.stats.ReadsIssued
			active = h.tree.latches.ActiveNodes()
		})
		if reads == 0 || grants == 0 || waits == 0 {
			t.Fatalf("%d reads issued, %d latch-table grants, %d waits: the ops never suspended with latches held", reads, grants, waits)
		}
		if active != 0 {
			t.Fatalf("%d pages still latched after the stream drained", active)
		}
	})
}

// countingEnv is the wall clock, counting its readings.
type countingEnv struct {
	*RealEnv
	reads atomic.Uint64
}

func (e *countingEnv) Now() sim.Time {
	e.reads.Add(1)
	return e.RealEnv.Now()
}

// TestClockReadsPerOp: the worker stamps from one clock reading per loop
// pass; completion takes two fresh ones (Completed, the end of delivery)
// and a reap one. A resident Get, one pass plus its completion, costs
// about three readings; a Get that misses about seven. Passes that run
// no op also read the clock once each: a pass that finds nothing and
// parks (Stats.Yields counts these, and they are not counted here), and
// one that spins while a producer it cannot see yet publishes. How many
// there are depends on how the test's goroutine is scheduled, and they
// only ever add, so the figure is the least of four rounds.
func TestClockReadsPerOp(t *testing.T) {
	for _, c := range []struct {
		name         string
		keys, buffer int
		max          float64
	}{
		{"resident", 4000, 4096, 3.05},
		{"missing", 20000, 64, 7.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := &countingEnv{RealEnv: NewRealEnv()}
			h := newHotTree(t, c.keys, c.buffer, env)
			h.gets(hotKeys(c.keys, c.keys, 7919)) // warm
			const gets = 16000
			per := math.Inf(1)
			for _, stride := range []int{7919, 7927, 7933, 7937} { // primes
				var parks0, parks1 uint64
				h.onWorker(func() { parks0 = h.tree.stats.Yields })
				before := env.reads.Load()
				h.gets(hotKeys(c.keys, gets, stride))
				reads := env.reads.Load() - before
				h.onWorker(func() { parks1 = h.tree.stats.Yields })
				per = min(per, float64(reads-(parks1-parks0))/gets)
			}
			t.Logf("%.3f clock readings per Get", per)
			if per > c.max {
				t.Fatalf("%.3f clock readings per Get, want <= %.2f", per, c.max)
			}
		})
	}
}
