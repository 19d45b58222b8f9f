package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// admitState is everything a refused reservation must leave untouched.
type admitState struct {
	head      uint64
	admitters int64
}

func stateOf(t *Tree) admitState {
	return admitState{head: t.inbox.head.Load(), admitters: t.admitters.Load()}
}

// reserveRig is a tree with an 8-slot ring. Its worker only runs while
// the test steps the engine, so a ring filled here stays full until then.
func reserveRig(t *testing.T) *rig {
	t.Helper()
	return newRig(t, Config{InboxDepth: 8, BufferPages: 64})
}

// fill reserves and publishes n inserts of keys base, base+1, …, counting
// completions into done.
func fill(t *testing.T, tree *Tree, base uint64, n int, done *int) {
	t.Helper()
	ops := make([]*Op, n)
	for i := range ops {
		ops[i] = NewInsert(base+uint64(i), []byte("v"), func(*Op) { *done++ })
	}
	r, err := tree.TryReserve(n)
	if err != nil {
		t.Fatalf("TryReserve(%d) on a ring with room: %v", n, err)
	}
	r.Publish(ops)
}

// drain steps the simulation until the tree has nothing queued or live.
func (r *rig) drain() {
	r.t.Helper()
	r.eng.RunFor(time.Second)
	if !r.tree.inbox.Empty() || r.tree.admitters.Load() != 0 {
		r.t.Fatalf("tree not drained: ring len %d, admitters %d",
			r.tree.inbox.Len(), r.tree.admitters.Load())
	}
}

func TestTryReserveFullRing(t *testing.T) {
	r := reserveRig(t)
	done := 0
	fill(t, r.tree, 100, r.tree.inbox.Cap(), &done)
	before := stateOf(r.tree)
	if _, err := r.tree.TryReserve(1); !errors.Is(err, ErrBacklog) {
		t.Fatalf("TryReserve on a full ring = %v, want ErrBacklog", err)
	}
	if after := stateOf(r.tree); after != before {
		t.Fatalf("refused reservation changed admission state: %+v -> %+v", before, after)
	}
	r.drain()
	if done != r.tree.inbox.Cap() {
		t.Fatalf("%d of %d published ops completed", done, r.tree.inbox.Cap())
	}
}

func TestTryReserveLargerThanRing(t *testing.T) {
	r := reserveRig(t)
	before := stateOf(r.tree)
	if _, err := r.tree.TryReserve(r.tree.inbox.Cap() + 1); !errors.Is(err, ErrBacklog) {
		t.Fatalf("TryReserve(cap+1) = %v, want ErrBacklog", err)
	}
	if after := stateOf(r.tree); after != before {
		t.Fatalf("oversized reservation changed admission state: %+v -> %+v", before, after)
	}
	// Nothing to reserve is not a claim: no tree, nothing to finish.
	if res, err := r.tree.TryReserve(0); err != nil || res != (Reservation{}) {
		t.Fatalf("TryReserve(0) = %+v, %v", res, err)
	}
}

func TestReservationAbortDrains(t *testing.T) {
	r := reserveRig(t)
	res, err := r.tree.TryReserve(5)
	if err != nil {
		t.Fatal(err)
	}
	// A producer queued behind the claim must still be served in order.
	done := 0
	fill(t, r.tree, 200, 3, &done)
	if got := r.tree.admitters.Load(); got != 1 {
		t.Fatalf("admitters = %d while a claim is open, want 1", got)
	}
	res.Abort()
	r.drain()
	if done != 3 {
		t.Fatalf("%d of 3 ops behind an aborted claim completed", done)
	}
	if !r.search(201).Found {
		t.Fatal("write queued behind an aborted claim was lost")
	}
}

func TestTryReserveStopped(t *testing.T) {
	r := reserveRig(t)
	r.tree.Stop()
	before := stateOf(r.tree)
	if _, err := r.tree.TryReserve(1); !errors.Is(err, ErrStopped) {
		t.Fatalf("TryReserve on a stopped tree = %v, want ErrStopped", err)
	}
	if after := stateOf(r.tree); after != before {
		t.Fatalf("reservation on a stopped tree changed admission state: %+v -> %+v", before, after)
	}
}

// TestReserveTwoTreesSecondRefused is the all-or-nothing protocol a
// cross-shard TryCommit runs: reserve on every tree, and when a later one
// refuses, abort the earlier claims — nothing is admitted anywhere.
func TestReserveTwoTreesSecondRefused(t *testing.T) {
	a, b := reserveRig(t), reserveRig(t)
	done := 0
	fill(t, b.tree, 300, b.tree.inbox.Cap(), &done)

	ra, err := a.tree.TryReserve(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.tree.TryReserve(1); !errors.Is(err, ErrBacklog) {
		t.Fatalf("second tree = %v, want ErrBacklog", err)
	}
	ra.Abort()

	a.drain()
	b.drain()
	if st := a.tree.StatsSnapshot(); st.TotalOps() != 0 || a.tree.NumKeys() != 0 {
		t.Fatalf("aborted tree counted %d ops and holds %d keys, want none", st.TotalOps(), a.tree.NumKeys())
	}
	if done != b.tree.inbox.Cap() || b.tree.NumKeys() != uint64(b.tree.inbox.Cap()) {
		t.Fatalf("refusing tree completed %d ops and holds %d keys, want its own %d", done, b.tree.NumKeys(), b.tree.inbox.Cap())
	}
}

// TestCallFromManyGoroutines: Call runs each function on the working
// thread, one at a time, from any number of callers at once, while ops
// flow; the count is a plain int, so the race detector sees any call that
// runs beside the worker or another call. Calls racing Stop are all
// served, by the worker or, once Run has returned, on their callers.
func TestCallFromManyGoroutines(t *testing.T) {
	h := newHotTree(t, 1000, 64, NewRealEnv())
	const callers, calls = 8, 200
	spray := func(f func()) *sync.WaitGroup {
		var wg sync.WaitGroup
		for range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range calls {
					h.tree.Call(f)
				}
			}()
		}
		return &wg
	}
	count := 0
	wg := spray(func() { count++ })
	h.gets(hotKeys(1000, 5000, 7))
	wg.Wait()
	if count != callers*calls {
		t.Fatalf("%d calls ran, want %d", count, callers*calls)
	}
	var late atomic.Int64
	wg = spray(func() { late.Add(1) })
	h.tree.Stop()
	<-h.done
	wg.Wait()
	h.tree.Call(func() { late.Add(1) })
	if n := late.Load(); n != callers*calls+1 {
		t.Fatalf("%d calls ran across Stop, want %d", n, callers*calls+1)
	}
}
