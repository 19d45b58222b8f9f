package core

import (
	"errors"
	"runtime"
	"time"

	"github.com/patree/patree/internal/sim"
)

// ErrStopped is returned for operations admitted after Stop.
var ErrStopped = errors.New("core: tree stopped")

// ErrBacklog is returned by TryReserve when the bounded admission ring
// lacks room — backpressure the embedder can react to.
var ErrBacklog = errors.New("core: admission ring full")

// Admit hands an operation to the working thread. Safe to call from any
// goroutine (real mode) or any simulation context (sim mode). When the
// bounded admission ring is full, Admit blocks until the working thread
// drains room (backpressure); TryReserve is the non-blocking way in.
func (t *Tree) Admit(o *Op) {
	t.AdmitBatch([]*Op{o})
}

// AdmitBatch admits ops as contiguous transactions on the ring: no
// foreign operation interleaves into a chunk, so a batch is processed as
// a group in admission order. Batches larger than the ring are split into
// ring-sized chunks. It blocks under backpressure, and fails every
// (remaining) op with ErrStopped once the tree has stopped.
func (t *Tree) AdmitBatch(ops []*Op) {
	t.admitters.Add(1)
	t.stamp(ops, t.now())
	for len(ops) > 0 {
		chunk := ops[:min(len(ops), t.inbox.Cap())]
		for spins := 0; ; {
			if t.stopped.Load() {
				t.admitters.Add(-1)
				for _, o := range ops {
					t.failAdmit(o)
				}
				return
			}
			if t.inbox.TryPushN(chunk) {
				break
			}
			if spins == 0 {
				t.admitWaits.Add(1)
			}
			t.admitBackoff(&spins)
			// enqueuedAt is restamped before every further push attempt, so
			// admit-wait (enqueuedAt − Admitted) measures the backpressure
			// the ops absorbed. The ring's release-store publishes it with
			// the rest of the op.
			retry := t.now()
			for _, o := range chunk {
				o.enqueuedAt = retry
			}
		}
		ops = ops[len(chunk):]
	}
	t.admitted()
}

// admitted ends one producer's hand-off: it stops counting as an
// in-flight admitter and the worker is told there is something to drain.
func (t *Tree) admitted() {
	t.admitters.Add(-1)
	if t.wake != nil {
		t.wake()
	}
}

// stamp marks ops as entering the engine at now. It MUST run before the
// ops become visible on the ring: the worker may complete an op the
// instant it is published there.
func (t *Tree) stamp(ops []*Op, now sim.Time) {
	for _, o := range ops {
		o.Res.Admitted = now
		o.enqueuedAt = now
	}
}

// Reservation is a claimed-but-unpublished span of the admission ring,
// the building block for all-or-nothing admission across several trees
// (a batch TryCommit): reserve room on every tree first, then publish
// everywhere, or abort the claims already made. Between TryReserve and
// Publish/Abort the reserving goroutine counts as an in-flight admitter,
// so the worker never exits under a live claim.
type Reservation struct {
	t   *Tree
	pos uint64
	n   int
}

// TryReserve claims room for n operations or returns ErrBacklog without
// side effects. A successful reservation (n >= 1) MUST be finished with
// Publish or Abort — an abandoned claim wedges the worker.
func (t *Tree) TryReserve(n int) (Reservation, error) {
	if n <= 0 {
		return Reservation{}, nil
	}
	t.admitters.Add(1)
	err := ErrBacklog
	if t.stopped.Load() {
		err = ErrStopped
	} else if pos, ok := t.inbox.tryClaim(n); ok {
		return Reservation{t: t, pos: pos, n: n}, nil
	}
	t.admitters.Add(-1)
	return Reservation{}, err
}

// Publish fills the reservation with ops (len(ops) must equal the
// reserved count) and releases the span to the worker. If the tree
// stopped after the reservation was taken the ops are still drained by
// the worker's shutdown path — the admitters count keeps it alive.
func (r Reservation) Publish(ops []*Op) {
	if len(ops) != r.n {
		panic("core: Reservation.Publish with mismatched op count")
	}
	if r.t == nil {
		return
	}
	r.t.stamp(ops, r.t.now())
	for i, o := range ops {
		r.t.inbox.publishAt(r.pos, i, o)
	}
	r.t.admitted()
}

// Abort releases the reservation by publishing internal no-ops into the
// claimed slots (the span cannot be un-claimed once later producers may
// have queued behind it); the no-ops flow through the worker and free
// themselves.
func (r Reservation) Abort() {
	if r.t == nil {
		return
	}
	now := r.t.now()
	for i := 0; i < r.n; i++ {
		o := AcquireOp().InitNop()
		o.Done = (*Op).Release
		o.Res.Admitted = now
		o.enqueuedAt = now
		r.t.inbox.publishAt(r.pos, i, o)
	}
	r.t.admitted()
}

// failAdmit completes an operation that cannot be admitted.
func (t *Tree) failAdmit(o *Op) {
	o.Res.Err = ErrStopped
	o.Res.Completed = o.Res.Admitted
	if o.Done != nil {
		o.Done(o)
	}
}

// admitBackoff parks a producer blocked on a full ring. Only the real
// environment can legitimately reach it: there the worker drains the ring
// concurrently. In the cooperative simulation the worker cannot run while
// the admitting callback spins, so a full ring there is a configuration
// error (raise Config.InboxDepth above the offered concurrency) and is
// reported as such rather than deadlocking silently.
func (t *Tree) admitBackoff(spins *int) {
	*spins++
	if t.wake == nil && *spins > 1<<20 {
		panic("core: admission ring full in a simulated environment; raise Config.InboxDepth")
	}
	if *spins%64 == 0 {
		time.Sleep(time.Microsecond)
	} else {
		runtime.Gosched()
	}
}

func (t *Tree) drainInbox() {
	drained := 0
	var drainNow sim.Time
	for {
		o, ok := t.inbox.Pop()
		if !ok {
			break
		}
		if drained == 0 {
			// One clock read covers the whole drain batch: every op in it
			// becomes ready at the same instant.
			drainNow = t.now()
		}
		drained++
		if o.kind == KindSync {
			t.enroll(o, stSyncRun)
		} else {
			t.enroll(o, stEntry)
		}
		o.drainedAt = drainNow
		if t.tr != nil {
			// Producer-side events, emitted retroactively now that the op
			// is on the worker (the tracer is single-threaded by design).
			if w := o.enqueuedAt.Sub(o.Res.Admitted); w > 0 {
				t.tr.Emit(tcAdmitWait, uint16(o.kind), o.seq, 0, int64(o.Res.Admitted), int64(w))
			}
			t.tr.Emit(tcInbox, uint16(o.kind), o.seq, 0, int64(o.enqueuedAt), int64(drainNow.Sub(o.enqueuedAt)))
		}
		if pointKind(o.kind) {
			o.keyGated = true
			if tail, ok := t.keyDeps[o.key]; ok {
				// A point op on this key is still in flight: park behind it
				// (released by opTeardown) to preserve admission order.
				tail.keyNext = o
				t.keyDeps[o.key] = o
				continue
			}
			if t.keyDeps == nil {
				t.keyDeps = make(map[uint64]*Op)
			}
			t.keyDeps[o.key] = o
		}
		t.pushReady(o, drainNow)
	}
}

// pointKind reports whether a kind addresses exactly one key and thus
// participates in the per-key dependency chain.
func pointKind(k Kind) bool {
	switch k {
	case KindSearch, KindInsert, KindUpdate, KindDelete:
		return true
	}
	return false
}

func (t *Tree) inboxEmpty() bool { return t.inbox.Empty() }

// adoptOp injects a tree-spawned operation directly into the live set,
// bypassing the admission ring. Worker-thread only.
func (t *Tree) adoptOp(o *Op, st opState) {
	now := t.now()
	o.Res.Admitted = now
	o.enqueuedAt = now
	o.drainedAt = now
	t.enroll(o, st)
	t.pushReady(o, now)
}

// enroll makes o a live operation of this tree, entering at state st.
func (t *Tree) enroll(o *Op, st opState) {
	t.seq++
	o.seq = t.seq
	o.tree = t
	if o.grantFn == nil {
		o.grantFn = func() { o.tree.grantLatch(o) }
	}
	o.state = st
	t.liveOps++
}
