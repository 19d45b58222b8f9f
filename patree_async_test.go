package patree

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
)

func openTest(t testing.TB, opts Options) *DB {
	t.Helper()
	if opts.DeviceBlocks == 0 {
		opts.DeviceBlocks = 1 << 16
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestAsyncHandles(t *testing.T) {
	db := openTest(t, Options{})
	const n = 256
	handles := make([]*Handle, 0, n)
	for i := uint64(0); i < n; i++ {
		h, err := db.PutAsync(i, []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	h, err := db.GetAsync(17)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Found() || string(h.Value()) != "v17" {
		t.Fatalf("Get(17) = %q found=%v", h.Value(), h.Found())
	}
	v := h.Value()
	h.Release()
	if string(v) != "v17" { // results survive Release
		t.Fatalf("value mutated by Release: %q", v)
	}
	h, err = db.DeleteAsync(17)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Found() {
		t.Fatal("Delete(17) reported absent")
	}
	h.Release()
	if _, ok, _ := db.Get(17); ok {
		t.Fatal("key 17 still present after delete")
	}
}

func TestBatchHeterogeneous(t *testing.T) {
	db := openTest(t, Options{})
	for i := uint64(0); i < 100; i++ {
		if err := db.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b := db.NewBatch()
	iGet := b.Get(42)
	iMiss := b.Get(1000)
	iPut := b.Put(200, []byte("two hundred"))
	iDel := b.Delete(7)
	iScan := b.Scan(10, 19, 0)
	iUpd := b.Update(3000, []byte("nope"))
	if b.Len() != 6 {
		t.Fatalf("Len = %d, want 6", b.Len())
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if !b.Found(iGet) || !bytes.Equal(b.Value(iGet), []byte{42}) {
		t.Fatalf("batch get: %v %x", b.Found(iGet), b.Value(iGet))
	}
	if b.Found(iMiss) {
		t.Fatal("batch get of absent key reported found")
	}
	if b.Err(iPut) != nil || !b.Found(iDel) {
		t.Fatalf("put err %v, delete found %v", b.Err(iPut), b.Found(iDel))
	}
	if got := len(b.Pairs(iScan)); got != 10 {
		t.Fatalf("scan returned %d pairs, want 10", got)
	}
	if b.Found(iUpd) {
		t.Fatal("update of absent key reported found")
	}
	b.Release()

	// Post-batch state visible to the blocking API.
	if v, ok, _ := db.Get(200); !ok || string(v) != "two hundred" {
		t.Fatalf("Get(200) = %q %v", v, ok)
	}
	if _, ok, _ := db.Get(7); ok {
		t.Fatal("key 7 survived batch delete")
	}

	// A recycled batch starts empty.
	b2 := db.NewBatch()
	if b2.Len() != 0 {
		t.Fatalf("recycled batch has %d staged ops", b2.Len())
	}
	b2.Release()
}

func TestBatchTryCommitBacklog(t *testing.T) {
	db := openTest(t, Options{InboxDepth: 8})
	// A batch larger than the whole ring can never be admitted atomically.
	b := db.NewBatch()
	for i := uint64(0); i < 32; i++ {
		b.Put(i, []byte("x"))
	}
	if err := b.TryCommit(); !errors.Is(err, ErrBacklog) {
		t.Fatalf("TryCommit on oversized batch: %v, want ErrBacklog", err)
	}
	b.Release() // reclaims the never-admitted ops
	// Blocking Commit still works for a batch that fits.
	b = db.NewBatch()
	for i := uint64(0); i < 8; i++ {
		b.Put(i, []byte("y"))
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	b.Release()
}

func TestContextVariants(t *testing.T) {
	db := openTest(t, Options{})
	ctx := context.Background()
	if err := db.PutContext(ctx, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := db.GetContext(ctx, 1); err != nil || !ok || string(v) != "one" {
		t.Fatalf("GetContext = %q %v %v", v, ok, err)
	}
	if ok, err := db.UpdateContext(ctx, 1, []byte("uno")); err != nil || !ok {
		t.Fatalf("UpdateContext = %v %v", ok, err)
	}
	if pairs, err := db.ScanContext(ctx, 0, 10, 0); err != nil || len(pairs) != 1 {
		t.Fatalf("ScanContext = %v %v", pairs, err)
	}
	if err := db.SyncContext(ctx); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.DeleteContext(ctx, 1); err != nil || !ok {
		t.Fatalf("DeleteContext = %v %v", ok, err)
	}
	// An already-cancelled context fails fast without admitting.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := db.GetContext(cancelled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetContext(cancelled) = %v", err)
	}
}

// TestHandleDetach drives the handle state machine through the
// cancellation race deterministically, playing the working thread's role
// by invoking the completion callback directly: cancellation first
// (detach, completion reclaims), then completion first (real result
// wins over cancellation).
func TestHandleDetach(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// Detach: the op is still in flight when the context expires.
	h := acquireHandle()
	op := core.AcquireOp().InitNop()
	op.Done = h.doneFn
	if err := h.WaitContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitContext = %v, want Canceled", err)
	}
	// The handle is detached; the late completion must reclaim it without
	// blocking (the channel send is skipped entirely).
	done := make(chan struct{})
	go func() { h.doneFn(op); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("completion of a detached handle blocked")
	}

	// Completion beats cancellation: the real result is reported.
	h = acquireHandle()
	op = core.AcquireOp().InitNop()
	op.Done = h.doneFn
	h.doneFn(op)
	if err := h.WaitContext(ctx); err != nil {
		t.Fatalf("WaitContext after completion = %v, want nil", err)
	}
	h.Release()
}

// TestCloseAdmitRace is the regression test for the Close/exec TOCTOU:
// operations racing Close must each either complete normally or fail
// with ErrClosed — never hang, and never surface core.ErrStopped.
func TestCloseAdmitRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		db := openTest(t, Options{})
		var wg sync.WaitGroup
		var closedSeen atomic.Int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					var err error
					switch i % 3 {
					case 0:
						err = db.Put(uint64(g*1000+i), []byte("p"))
					case 1:
						_, _, err = db.Get(uint64(g*1000 + i))
					default:
						var h *Handle
						h, err = db.GetAsync(uint64(g*1000 + i))
						if err == nil {
							err = h.Wait()
							h.Release()
						}
					}
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("op failed with %v, want ErrClosed", err)
						}
						closedSeen.Add(1)
						return
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if got := closedSeen.Load(); got != 8 {
			t.Fatalf("round %d: %d goroutines saw ErrClosed, want 8", round, got)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if err := db.Put(1, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("Put after Close: %v", err)
		}
		if _, err := db.PutAsync(1, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("PutAsync after Close: %v", err)
		}
		b := db.NewBatch()
		b.Put(1, nil)
		if err := b.Commit(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Commit after Close: %v", err)
		}
		b.Release()
	}
}

// TestAsyncStress drives blocking, async and batch paths from many
// goroutines concurrently with a Close; meant to run under -race (the CI
// workflow always does).
func TestAsyncStress(t *testing.T) {
	db := openTest(t, Options{InboxDepth: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rngKey := uint64(g)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rngKey = rngKey*6364136223846793005 + 1442695040888963407
				k := rngKey % 4096
				var err error
				switch g % 3 {
				case 0: // blocking mix
					if i%2 == 0 {
						err = db.Put(k, []byte("blk"))
					} else {
						_, _, err = db.Get(k)
					}
				case 1: // async window of 16
					hs := make([]*Handle, 0, 16)
					for j := 0; j < 16 && err == nil; j++ {
						var h *Handle
						if j%4 == 0 {
							h, err = db.PutAsync(k+uint64(j), []byte("as"))
						} else {
							h, err = db.GetAsync(k + uint64(j))
						}
						if err == nil {
							hs = append(hs, h)
						}
					}
					for _, h := range hs {
						if werr := h.Wait(); werr != nil && err == nil {
							err = werr
						}
						h.Release()
					}
				default: // batches
					b := db.NewBatch()
					for j := uint64(0); j < 24; j++ {
						if j%3 == 0 {
							b.Put(k+j, []byte("bat"))
						} else {
							b.Get(k + j)
						}
					}
					err = b.Commit()
					if err == nil {
						err = b.Wait()
					}
					b.Release()
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("goroutine %d: %v", g, err)
					}
					return
				}
			}
		}(g)
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsPerOp guards the pooled hot path: a cached point lookup
// through the full public pipeline (pooled op + handle, ring admission,
// decode-free page search, recycled latches) must stay within 2
// allocations, and a pipeline no-op within 1. A cached Update or Delete
// steps the same way and edits its sealed leaf into one fresh image,
// which it then writes in place (strong persistence): the image, the
// write's command and its completion are what it allocates. Allocation
// counting is process-wide, so the working thread's share is included.
func TestAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	db := openTest(t, Options{})
	for i := uint64(0); i < 512; i++ {
		if err := db.Put(i, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	// Warm pools and page cache.
	for i := uint64(0); i < 512; i++ {
		if _, ok, err := db.Get(i); !ok || err != nil {
			t.Fatalf("warm Get(%d) = %v %v", i, ok, err)
		}
	}
	key := uint64(0)
	got := testing.AllocsPerRun(2000, func() {
		key = (key + 1) % 512
		if _, ok, err := db.Get(key); !ok || err != nil {
			t.Fatalf("Get(%d) = %v %v", key, ok, err)
		}
	})
	t.Logf("cached Get: %.2f allocs/op", got)
	if got > 2 {
		t.Errorf("cached Get allocates %.2f per op, budget 2", got)
	}
	val := []byte("fedcba9876543210")
	upd := testing.AllocsPerRun(2000, func() {
		key = (key + 1) % 512
		if ok, err := db.Update(key, val); !ok || err != nil {
			t.Fatalf("Update(%d) = %v %v", key, ok, err)
		}
	})
	t.Logf("cached Update: %.2f allocs/op", upd)
	if upd > 4 {
		t.Errorf("cached Update allocates %.2f per op, budget 4 (3 measured, 22 when every update decoded its path)", upd)
	}
	// Deletes need a key each: 2001 more, in leaves of their own.
	for i := uint64(1 << 20); i < 1<<20+2001; i++ {
		if err := db.Put(i, val); err != nil {
			t.Fatal(err)
		}
	}
	key = 1<<20 - 1
	del := testing.AllocsPerRun(2000, func() {
		key++
		if ok, err := db.Delete(key); !ok || err != nil {
			t.Fatalf("Delete(%d) = %v %v", key, ok, err)
		}
	})
	t.Logf("cached Delete: %.2f allocs/op", del)
	if del > 4 {
		t.Errorf("cached Delete allocates %.2f per op, budget 4 (3 measured, 17 when every delete decoded its path)", del)
	}
	nop := testing.AllocsPerRun(2000, func() {
		h := acquireHandle()
		op := core.AcquireOp().InitNop()
		op.Done = h.doneFn
		if err := db.admit(db.shards[0], op); err != nil {
			t.Fatal(err)
		}
		h.Release()
	})
	t.Logf("pipeline no-op: %.2f allocs/op", nop)
	if nop > 1 {
		t.Errorf("pipeline no-op allocates %.2f per op, budget 1", nop)
	}
}

// TestColdGetAllocs pins what a Get that misses the buffer allocates on
// the default RAM device. A 16-page buffer over 4096 keys visited with a
// stride that crosses leaves makes every Get read its leaf. The device
// allocates nothing, so what is counted is the tree's: the page image a
// read lands in, the seam's command and closure, the buffer's LRU entry
// and the value copy (8 measured; 9 while the probe tracker kept a map
// bucket per slice).
func TestColdGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	db := openTest(t, Options{BufferPages: 16})
	const keys = 4096
	for i := uint64(0); i < keys; i++ {
		if err := db.Put(i, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	key := uint64(0)
	get := func() {
		key = (key + 97) % keys
		if _, ok, err := db.Get(key); !ok || err != nil {
			t.Fatalf("Get(%d) = %v %v", key, ok, err)
		}
	}
	for i := 0; i < keys; i++ {
		get()
	}
	const runs = 2000
	before := db.Stats().ReadsIssued
	got := testing.AllocsPerRun(runs, get)
	if reads := db.Stats().ReadsIssued - before; reads < runs {
		t.Fatalf("%d device reads over %d Gets: not every Get missed", reads, runs)
	}
	t.Logf("cold Get: %.2f allocs/op", got)
	if got > 9 {
		t.Errorf("cold Get allocates %.2f per op, budget 9", got)
	}
}

// TestJournaledUpdateAllocs pins what one journaled update of a cached
// leaf allocates, beside the read path's budget above. The descent steps
// over sealed pages and the leaf edit builds one fresh image, which the
// buffer keeps dirty: that image is the whole per-update allocation. The
// page reaches the device later, by write-back or checkpoint, so the
// update issues no page write of its own. The RAM device allocates
// nothing per command, and the journal's share is a staging slab every
// eight log blocks: the record, the writer's queue entry and its command
// live in reused state.
func TestJournaledUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	db := openTest(t, Options{Journal: true})
	val := bytes.Repeat([]byte("v"), 100)
	for i := uint64(0); i < 512; i++ {
		if err := db.Put(i, val); err != nil {
			t.Fatal(err)
		}
	}
	key := uint64(0)
	got := testing.AllocsPerRun(4000, func() {
		key = (key + 1) % 512
		if ok, err := db.Update(key, val); !ok || err != nil {
			t.Fatalf("Update(%d) = %v %v", key, ok, err)
		}
	})
	t.Logf("journaled update: %.2f allocs/op", got)
	if got > 2 {
		t.Errorf("journaled update allocates %.2f per op, budget 2 (1 measured; 16 when it decoded its path and re-encoded the leaf, 46 before the journal path was rebuilt)", got)
	}
}
