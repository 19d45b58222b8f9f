package core

import (
	"runtime"
	"sync"
	"testing"
)

// tryPush admits one op the way Tree.Admit does: a batch of one.
func tryPush(r *opRing, o *Op) bool { return r.TryPushN([]*Op{o}) }

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 8}, {1, 8}, {8, 8}, {9, 16}, {100, 128}, {4096, 4096},
	} {
		if got := newOpRing(tc.in).Cap(); got != tc.want {
			t.Errorf("newOpRing(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRingFIFO(t *testing.T) {
	r := newOpRing(8)
	ops := make([]*Op, 20)
	for i := range ops {
		ops[i] = NewNop(nil)
	}
	next := 0
	for len(ops) > 0 {
		pushed := 0
		for _, o := range ops {
			if !tryPush(r, o) {
				break
			}
			pushed++
		}
		if pushed == 0 {
			t.Fatal("ring refused a push while drained")
		}
		ops = ops[pushed:]
		for i := 0; i < pushed; i++ {
			if _, ok := r.Pop(); !ok {
				t.Fatalf("pop %d returned nothing", i)
			}
			next++
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop on empty ring returned an op")
	}
	if next != 20 {
		t.Fatalf("popped %d ops, want 20", next)
	}
}

func TestRingFullAndLen(t *testing.T) {
	r := newOpRing(8)
	for i := 0; i < 8; i++ {
		if !tryPush(r, NewNop(nil)) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if tryPush(r, NewNop(nil)) {
		t.Fatal("push succeeded on a full ring")
	}
	if r.Len() != 8 {
		t.Fatalf("Len() = %d, want 8", r.Len())
	}
	if r.Empty() {
		t.Fatal("full ring reported Empty")
	}
	r.Pop()
	if !tryPush(r, NewNop(nil)) {
		t.Fatal("push failed after a pop freed a slot")
	}
}

func TestRingTryPushNAtomic(t *testing.T) {
	r := newOpRing(8)
	batch := make([]*Op, 5)
	for i := range batch {
		batch[i] = NewNop(nil)
	}
	if !r.TryPushN(batch) {
		t.Fatal("first batch refused on empty ring")
	}
	// 3 free slots: a 5-op batch must be refused atomically.
	if r.TryPushN(batch) {
		t.Fatal("batch larger than free space accepted")
	}
	if r.Len() != 5 {
		t.Fatalf("failed TryPushN changed Len to %d", r.Len())
	}
	small := batch[:3]
	if !r.TryPushN(small) {
		t.Fatal("batch exactly filling the ring refused")
	}
	if r.Len() != 8 {
		t.Fatalf("Len() = %d, want 8", r.Len())
	}
}

// TestRingConcurrentProducers hammers the MPSC contract: many producers,
// one consumer, every op delivered exactly once. Run with -race.
func TestRingConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 500
	r := newOpRing(64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				o := NewNop(nil)
				o.Tag = uint64(p)<<32 | uint64(i)
				for !tryPush(r, o) {
					runtime.Gosched() // consumer is draining concurrently
				}
			}
		}(p)
	}
	seen := make(map[uint64]bool, producers*perProducer)
	lastPer := make([]int64, producers)
	for i := range lastPer {
		lastPer[i] = -1
	}
	for len(seen) < producers*perProducer {
		o, ok := r.Pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if seen[o.Tag] {
			t.Fatalf("op %x delivered twice", o.Tag)
		}
		seen[o.Tag] = true
		// Per-producer FIFO: a producer's ops arrive in push order.
		p, i := o.Tag>>32, int64(o.Tag&0xffffffff)
		if i <= lastPer[p] {
			t.Fatalf("producer %d: op %d after op %d", p, i, lastPer[p])
		}
		lastPer[p] = i
	}
	wg.Wait()
	if !r.Empty() {
		t.Fatal("ring not empty after all ops consumed")
	}
}
