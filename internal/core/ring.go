package core

import "sync/atomic"

// opRing is a bounded multi-producer single-consumer queue of operations:
// the admission inbox between embedder goroutines (or simulation
// callbacks) and the working thread. It is a Vyukov-style sequence-number
// ring: producers claim slots by CAS on head and publish them by storing
// the slot's sequence; the single consumer pops in strict claim order, so
// admission stays FIFO even under concurrent producers.
//
// Unlike the mutex-guarded slice it replaces, the ring is bounded — a
// full ring is backpressure, surfaced to embedders as ErrBacklog or as a
// blocking Admit — and admission on the fast path costs one CAS and two
// atomic stores, with zero allocations.
type opRing struct {
	mask  uint64
	slots []ringSlot
	_     [64]byte // keep head off the slots' cache lines
	head  atomic.Uint64
	_     [64]byte // producers (head) and consumer (tail) do not false-share
	tail  uint64   // touched only by the consumer
}

// ringSlot pairs an operation with its publication sequence.
type ringSlot struct {
	seq atomic.Uint64
	op  *Op
	_   [48]byte // one slot per cache line: producers publish independently
}

// newOpRing returns a ring with capacity rounded up to a power of two.
func newOpRing(capacity int) *opRing {
	c := 8
	for c < capacity {
		c <<= 1
	}
	r := &opRing{mask: uint64(c - 1), slots: make([]ringSlot, c)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring capacity.
func (r *opRing) Cap() int { return len(r.slots) }

// TryPushN claims len(ops) contiguous slots in one transaction and
// publishes them in order, so a batch is admitted atomically with respect
// to other producers: no foreign operation interleaves into the batch.
// It returns false without side effects when the ring lacks room (a batch
// larger than the ring can never succeed).
func (r *opRing) TryPushN(ops []*Op) bool {
	pos, ok := r.tryClaim(len(ops))
	if ok {
		for i, o := range ops {
			r.publishAt(pos, i, o)
		}
	}
	return ok
}

// tryClaim is the ring's one claim loop: it claims n contiguous slots
// without publishing anything and returns the base position of the span.
// The claim holds room on the ring: the consumer reads the span's slots
// as empty until each is published via publishAt, and producers behind
// the claim queue up as usual. Callers must eventually publish every
// claimed slot (with real ops or no-ops) or the consumer stalls forever;
// pair with the tree's admitters protocol so the worker cannot exit
// mid-claim.
func (r *opRing) tryClaim(n int) (uint64, bool) {
	un := uint64(n)
	if un == 0 {
		return 0, true
	}
	if un > uint64(len(r.slots)) {
		return 0, false
	}
	for {
		pos := r.head.Load()
		// With a single consumer, slots free in strict order: if the last
		// slot of the span is free for this lap, every earlier one is too.
		last := &r.slots[(pos+un-1)&r.mask]
		seq := last.seq.Load()
		switch d := int64(seq - (pos + un - 1)); {
		case d == 0:
			if r.head.CompareAndSwap(pos, pos+un) {
				return pos, true
			}
		case d < 0:
			return 0, false // the span's last slot is still occupied by the previous lap
		}
		// d > 0: another producer claimed pos between our loads; retry.
	}
}

// publishAt publishes o into the i-th slot of a span claimed at pos.
// Slots of one claim may be published in any order; the consumer blocks
// at the first unpublished slot, preserving FIFO.
func (r *opRing) publishAt(pos uint64, i int, o *Op) {
	slot := &r.slots[(pos+uint64(i))&r.mask]
	slot.op = o
	slot.seq.Store(pos + uint64(i) + 1)
}

// Pop removes the oldest published operation. It must only be called by
// the single consumer. A claimed-but-unpublished slot reads as empty, so
// Pop never reorders past an in-flight producer.
func (r *opRing) Pop() (*Op, bool) {
	pos := r.tail
	slot := &r.slots[pos&r.mask]
	seq := slot.seq.Load()
	if int64(seq-(pos+1)) < 0 {
		return nil, false
	}
	o := slot.op
	slot.op = nil
	slot.seq.Store(pos + r.mask + 1)
	r.tail = pos + 1
	return o, true
}

// Empty reports whether no operation is published or being published.
// Claimed-but-unpublished slots count as occupied, so a false Empty is
// never returned while a producer is mid-admission. Consumer-side only.
func (r *opRing) Empty() bool { return r.head.Load() == r.tail }

// Len approximates the number of queued operations (consumer-side).
func (r *opRing) Len() int { return int(r.head.Load() - r.tail) }
