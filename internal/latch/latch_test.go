package latch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/patree/patree/internal/storage"
)

const nodeA = storage.PageID(1)

func TestSharedLatchesCoexist(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 3; i++ {
		if !tb.Acquire(nodeA, Shared, nil) {
			t.Fatal("shared latch blocked with no writers")
		}
	}
	if r, w := tb.Held(nodeA); r != 3 || w != 0 {
		t.Fatalf("held = (%d,%d)", r, w)
	}
}

func TestExclusiveExcludes(t *testing.T) {
	tb := NewTable()
	if !tb.Acquire(nodeA, Exclusive, nil) {
		t.Fatal("first X blocked")
	}
	grantedS, grantedX := false, false
	if tb.Acquire(nodeA, Shared, func() { grantedS = true }) {
		t.Fatal("S granted while X held")
	}
	if tb.Acquire(nodeA, Exclusive, func() { grantedX = true }) {
		t.Fatal("second X granted while X held")
	}
	tb.Release(nodeA, Exclusive)
	if !grantedS {
		t.Fatal("queued S not promoted on release")
	}
	if grantedX {
		t.Fatal("X promoted while S head held") // S was first in queue
	}
	tb.Release(nodeA, Shared)
	if !grantedX {
		t.Fatal("X not promoted after S released")
	}
}

// TestGrantableMatchesAcquire: on a table driven through random
// acquires and releases, Grantable answers exactly what the next Acquire
// does, and asking changes nothing.
func TestGrantableMatchesAcquire(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := NewTable()
	var held []Mode // granted latches on nodeA, in grant order
	for i := 0; i < 2000; i++ {
		if len(held) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(held))
			m := held[j]
			held = append(held[:j], held[j+1:]...)
			tb.Release(nodeA, m)
			continue
		}
		mode := Mode(rng.Intn(2))
		r, w := tb.Held(nodeA)
		pending := tb.PendingCount(nodeA)
		want := tb.Grantable(nodeA, mode)
		if r2, w2 := tb.Held(nodeA); r2 != r || w2 != w || tb.PendingCount(nodeA) != pending {
			t.Fatalf("Grantable changed the node: (%d,%d,%d) -> (%d,%d,%d)", r, w, pending, r2, w2, tb.PendingCount(nodeA))
		}
		got := tb.Acquire(nodeA, mode, func() { held = append(held, mode) })
		if got != want {
			t.Fatalf("step %d: Grantable(%v) = %v on (r=%d, w=%d, %d queued), Acquire granted %v", i, mode, want, r, w, pending, got)
		}
		if got {
			held = append(held, mode)
		}
	}
}

// TestTryAcquireNeverQueues pins the non-blocking grant: it succeeds
// exactly when Acquire would grant at once, and a refusal leaves no
// request behind — including behind a queued writer, which a shared
// Acquire would have to wait for.
func TestTryAcquireNeverQueues(t *testing.T) {
	tb := NewTable()
	if !tb.TryAcquire(nodeA, Shared) || !tb.TryAcquire(nodeA, Shared) {
		t.Fatal("shared try refused on a free node")
	}
	if tb.TryAcquire(nodeA, Exclusive) {
		t.Fatal("exclusive try granted with readers present")
	}
	granted := false
	tb.Acquire(nodeA, Exclusive, func() { granted = true })
	if tb.TryAcquire(nodeA, Shared) {
		t.Fatal("shared try jumped a queued writer")
	}
	if n := tb.PendingCount(nodeA); n != 1 {
		t.Fatalf("refused tries left %d queued requests, want only the writer", n)
	}
	tb.Release(nodeA, Shared)
	tb.Release(nodeA, Shared)
	if !granted {
		t.Fatal("writer not promoted once the tried readers released")
	}
	tb.Release(nodeA, Exclusive)
	if tb.ActiveNodes() != 0 {
		t.Fatalf("%d nodes still active", tb.ActiveNodes())
	}
}

func TestWriteBlockedByReaders(t *testing.T) {
	tb := NewTable()
	tb.Acquire(nodeA, Shared, nil)
	tb.Acquire(nodeA, Shared, nil)
	granted := false
	if tb.Acquire(nodeA, Exclusive, func() { granted = true }) {
		t.Fatal("X granted with readers present")
	}
	tb.Release(nodeA, Shared)
	if granted {
		t.Fatal("X granted with one reader remaining")
	}
	tb.Release(nodeA, Shared)
	if !granted {
		t.Fatal("X not granted after last reader left")
	}
}

func TestFIFOPreventsReaderOvertaking(t *testing.T) {
	// Reader → queued writer → new reader: the new reader must queue
	// behind the writer (first-request-first-grant), not sneak in.
	tb := NewTable()
	tb.Acquire(nodeA, Shared, nil)
	var order []string
	tb.Acquire(nodeA, Exclusive, func() { order = append(order, "w") })
	if tb.Acquire(nodeA, Shared, func() { order = append(order, "r2") }) {
		t.Fatal("late reader overtook queued writer")
	}
	tb.Release(nodeA, Shared)
	// Writer granted; r2 still waiting.
	if len(order) != 1 || order[0] != "w" {
		t.Fatalf("order = %v", order)
	}
	tb.Release(nodeA, Exclusive)
	if len(order) != 2 || order[1] != "r2" {
		t.Fatalf("order = %v", order)
	}
}

func TestBatchPromotionOfReaders(t *testing.T) {
	// X held; queue = [S, S, X, S]. On X release the two leading S are
	// granted together; the queued X waits; the trailing S stays behind X.
	tb := NewTable()
	tb.Acquire(nodeA, Exclusive, nil)
	granted := make([]bool, 4)
	tb.Acquire(nodeA, Shared, func() { granted[0] = true })
	tb.Acquire(nodeA, Shared, func() { granted[1] = true })
	tb.Acquire(nodeA, Exclusive, func() { granted[2] = true })
	tb.Acquire(nodeA, Shared, func() { granted[3] = true })
	tb.Release(nodeA, Exclusive)
	if !granted[0] || !granted[1] || granted[2] || granted[3] {
		t.Fatalf("granted = %v, want [true true false false]", granted)
	}
	if r, _ := tb.Held(nodeA); r != 2 {
		t.Fatalf("r = %d", r)
	}
}

func TestReleasePanicsWhenNotHeld(t *testing.T) {
	tb := NewTable()
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		f()
	}
	mustPanic(func() { tb.Release(nodeA, Shared) })
	tb.Acquire(nodeA, Shared, nil)
	mustPanic(func() { tb.Release(nodeA, Exclusive) })
}

func TestStateReclaimed(t *testing.T) {
	tb := NewTable()
	tb.Acquire(nodeA, Shared, nil)
	tb.Acquire(storage.PageID(2), Exclusive, nil)
	if tb.ActiveNodes() != 2 {
		t.Fatalf("active = %d", tb.ActiveNodes())
	}
	tb.Release(nodeA, Shared)
	tb.Release(storage.PageID(2), Exclusive)
	if tb.ActiveNodes() != 0 {
		t.Fatalf("active after release = %d", tb.ActiveNodes())
	}
}

// TestAcquireReleaseAllocs pins the steady state of an uncontended node
// visit: once the record and the index have been sized, acquiring and
// releasing a latch allocates nothing.
func TestAcquireReleaseAllocs(t *testing.T) {
	tb := NewTable()
	tb.Acquire(nodeA, Exclusive, nil)
	tb.Release(nodeA, Exclusive)
	if n := testing.AllocsPerRun(100, func() {
		tb.Acquire(nodeA, Shared, nil)
		tb.Acquire(storage.PageID(2), Exclusive, nil)
		tb.Release(nodeA, Shared)
		tb.Release(storage.PageID(2), Exclusive)
	}); n != 0 {
		t.Fatalf("acquire/release cycle allocates %v times, want 0", n)
	}
}

func TestStats(t *testing.T) {
	tb := NewTable()
	tb.Acquire(nodeA, Exclusive, nil)
	tb.Acquire(nodeA, Shared, func() {})
	if tb.Grants() != 1 || tb.Waits() != 1 {
		t.Fatalf("grants=%d waits=%d", tb.Grants(), tb.Waits())
	}
	tb.Release(nodeA, Exclusive) // promotes the S
	if tb.Grants() != 2 {
		t.Fatalf("grants=%d", tb.Grants())
	}
	tb.ResetStats()
	if tb.Grants() != 0 || tb.Waits() != 0 {
		t.Fatal("reset failed")
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("mode strings wrong")
	}
}

// Property: under any sequence of acquires and releases the invariants
// hold: w <= 1, never r > 0 and w > 0 simultaneously, grants come in
// request order, the queue's slice holds at most twice its live
// requests, and every queued request is eventually granted once all held
// latches are released. Sequences run to 600 steps, so queues grow long
// enough for Release to move a live queue to the front of its slice.
func TestLatchInvariantsProperty(t *testing.T) {
	moved := 0 // releases that moved a live queue to the slice's front
	f := func(raw []byte) bool {
		tb := NewTable()
		id := storage.PageID(7)
		var holds []Mode
		requests, granted := 0, 0
		inOrder := true
		grant := func(req int, m Mode) {
			inOrder = inOrder && req == granted
			granted++
			holds = append(holds, m)
		}
		check := func() bool {
			r, w := tb.Held(id)
			if !inOrder || w > 1 || (r > 0 && w > 0) {
				return false
			}
			if nl, _ := tb.nodes.Get(id); nl != nil && len(nl.pending) > 2*nl.queued() {
				return false
			}
			nr, nw := 0, 0
			for _, m := range holds {
				if m == Exclusive {
					nw++
				} else {
					nr++
				}
			}
			return r == nr && w == nw
		}
		release := func(i int) {
			m := holds[i]
			holds = append(holds[:i], holds[i+1:]...)
			nl, _ := tb.nodes.Get(id)
			dead := nl.head
			before := granted
			tb.Release(id, m)
			if dead+granted-before > 0 && nl.head == 0 && nl.queued() > 0 {
				moved++
			}
		}
		for _, b := range raw {
			if b%3 != 0 || len(holds) == 0 { // acquire
				mode := Shared
				if b%2 == 0 {
					mode = Exclusive
				}
				req := requests
				requests++
				if tb.Acquire(id, mode, func() { grant(req, mode) }) {
					grant(req, mode)
				}
			} else { // release a random holder
				release(int(b) % len(holds))
			}
			if !check() {
				return false
			}
		}
		// Drain: release everything; all queued grants must fire.
		for len(holds) > 0 {
			release(len(holds) - 1)
			if !check() {
				return false
			}
		}
		return granted == requests && tb.ActiveNodes() == 0
	}
	cfg := &quick.Config{MaxCount: 500, Values: func(v []reflect.Value, rng *rand.Rand) {
		raw := make([]byte, rng.Intn(600))
		rng.Read(raw)
		v[0] = reflect.ValueOf(raw)
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("no release moved a live queue; the sequences are too short to test compaction")
	}
}

// TestLongQueueDrainsLinearly releases 100 000 queued exclusive waiters
// one at a time. Each grant must cost O(1): a dequeue that shifts the
// whole queue makes this drain quadratic, several seconds long.
func TestLongQueueDrainsLinearly(t *testing.T) {
	const waiters = 100_000
	tb := NewTable()
	tb.Acquire(nodeA, Exclusive, nil)
	granted := 0
	for i := 0; i < waiters; i++ {
		tb.Acquire(nodeA, Exclusive, func() { granted++ })
	}
	start := time.Now()
	for i := 0; i <= waiters; i++ {
		tb.Release(nodeA, Exclusive)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("draining %d waiters took %v, want under 1s", waiters, elapsed)
	}
	if granted != waiters || tb.ActiveNodes() != 0 {
		t.Fatalf("granted %d of %d, %d nodes active", granted, waiters, tb.ActiveNodes())
	}
}

// BenchmarkDescentLatches is the latch traffic of a descent among other
// ops in flight: 32 latches stay held on scattered pages while each
// iteration couples down four levels — acquire the child, release the
// parent — as the working thread does per node visit.
func BenchmarkDescentLatches(b *testing.B) {
	tb := NewTable()
	for i := 0; i < 32; i++ {
		tb.Acquire(storage.PageID(100_000+i*7919), Shared, nil)
	}
	rng := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev := storage.PageID(1)
		tb.Acquire(prev, Shared, nil)
		for level := uint64(0); level < 3; level++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			child := storage.PageID(2 + (level+1)*10_000 + (rng>>40)%(10_000))
			tb.Acquire(child, Shared, nil)
			tb.Release(prev, Shared)
			prev = child
		}
		tb.Release(prev, Shared)
	}
}
