package patree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/patree/patree/internal/core"
)

// Handle is the future for one asynchronous operation. The issuing
// goroutine owns it: Wait blocks until the working thread completes the
// operation, the accessors (Err, Found, Value, Pairs) wait implicitly,
// and Release returns the handle to the pool once the caller is done
// with the results. Results returned by the accessors remain valid after
// Release.
//
// A Handle is not safe for concurrent use by multiple goroutines; hand
// it off if another goroutine should wait. The one exception to the
// ownership rule is WaitContext returning the context's error: that
// detaches the handle — the working thread reclaims it when the
// operation eventually completes — and the caller must not touch it
// again (see DESIGN.md).
type Handle struct {
	ch    chan struct{}
	state atomic.Uint32
	res   core.Result
	// waited is owner-local: once the completion token is consumed the
	// accessors are pure field reads.
	waited bool
	// doneFn is the reusable completion callback handed to core.Op.Done;
	// built once per handle lifetime, it survives pool recycling so a
	// steady-state async operation allocates neither closure nor channel.
	doneFn func(*core.Op)
	// agg, when non-nil after the completion token is consumed, holds the
	// per-shard results of a scattered operation; the consuming goroutine
	// merges them (resolve) so the k-way merge never steals poll cycles
	// from the working thread that delivered last. Written before the
	// token is published, read after it is consumed, so the channel
	// orders the accesses.
	agg *fanAgg
}

// Handle lifecycle states.
const (
	hPending uint32 = iota
	hCompleted
	hDetached
	// hReleased marks a handle that is back in (or on its way to) the
	// pool. It exists purely so misuse — touching a handle after Release
	// or after a WaitContext detach — fails with a descriptive panic
	// instead of a blocked Wait or a torn read of a recycled slot. The
	// detection is best-effort: a pooled reacquisition can win the race
	// with the misuser, but a correct program never observes this state.
	hReleased
)

var handlePool = sync.Pool{
	New: func() any { return &Handle{ch: make(chan struct{}, 1)} },
}

// acquireHandle returns a pooled handle ready for one operation.
func acquireHandle() *Handle {
	h := handlePool.Get().(*Handle)
	h.res = core.Result{}
	h.agg = nil
	h.waited = false
	h.state.Store(hPending)
	// Defensive: a well-behaved lifecycle never leaves a token behind,
	// but a stale one would corrupt the next Wait.
	select {
	case <-h.ch:
	default:
	}
	if h.doneFn == nil {
		h.doneFn = h.complete
	}
	return h
}

// complete is the Done callback; it runs on the working thread. The
// operation is released back to its pool here — the tree drops all
// references before calling Done — and the result (whose slices are
// freshly allocated per operation, never pooled) moves to the handle.
func (h *Handle) complete(o *core.Op) {
	res := o.Res
	o.Release()
	h.deliver(res)
}

// deliver resolves the handle with res: complete uses it for one-op
// handles, remote backends for theirs.
func (h *Handle) deliver(res core.Result) {
	h.res = res
	h.res.Err = mapErr(h.res.Err)
	h.publish()
}

// publish hands the completion token to the waiter. It is the single
// fulfilment path, run once per handle by whoever holds its outcome.
func (h *Handle) publish() {
	if h.state.CompareAndSwap(hPending, hCompleted) {
		h.ch <- struct{}{} // cap 1: never blocks the working thread
	} else {
		// Detached by a cancelled WaitContext: nobody will consume the
		// result (a scattered operation's merge is dropped unrun), so the
		// completion also recycles the handle.
		h.recycle()
	}
}

// resolve finishes a wait on the goroutine that just consumed the
// completion token, before any h.res read: a scattered operation's
// per-shard results are merged here, off the working threads.
func (h *Handle) resolve() {
	if h.agg != nil {
		h.res = h.agg.merged()
		h.res.Err = mapErr(h.res.Err)
		h.agg = nil
	}
	h.waited = true
}

// Wait blocks until the operation completes and returns its error.
// It is idempotent: after the first return every further call (and every
// accessor) returns immediately.
func (h *Handle) Wait() error {
	if !h.waited {
		h.checkLive("Wait")
		<-h.ch
		h.resolve()
	}
	return h.res.Err
}

// checkLive panics descriptively when a handle that cannot deliver a
// result anymore — released, or detached by a cancelled WaitContext —
// is about to be waited on. Without it the misuse would block forever
// or tear a read against pool recycling.
func (h *Handle) checkLive(what string) {
	switch h.state.Load() {
	case hDetached:
		panic("patree: Handle." + what + " after WaitContext detach — a handle detached by cancellation is reclaimed by its completion and must not be touched")
	case hReleased:
		panic("patree: Handle." + what + " after Release")
	}
}

// Err waits and returns the operation error (nil on success).
func (h *Handle) Err() error { return h.Wait() }

// Found waits and reports whether the key existed (search, update,
// delete) or a previous value was replaced (insert).
func (h *Handle) Found() bool {
	h.Wait()
	return h.res.Found
}

// Value waits and returns the value found by a point search.
func (h *Handle) Value() []byte {
	h.Wait()
	return h.res.Value
}

// Pairs waits and returns a range scan's results.
func (h *Handle) Pairs() []KV {
	h.Wait()
	return h.res.Pairs
}

// Release waits for completion if necessary and returns the handle to
// the pool. The handle must not be used afterwards; previously returned
// result slices stay valid.
func (h *Handle) Release() {
	h.Wait()
	h.recycle()
}

// recycle returns h to the pool without waiting; the caller guarantees
// no completion is outstanding. The hReleased marker makes a subsequent
// touch by the former owner fail loudly (best-effort; see checkLive) —
// clearing waited here is what routes that touch through checkLive
// instead of the owner-local fast path, which would silently read the
// zeroed result.
func (h *Handle) recycle() {
	h.res = core.Result{}
	h.agg = nil
	h.waited = false
	h.state.Store(hReleased)
	handlePool.Put(h)
}

// abandon recycles a handle whose operation was never admitted.
func (h *Handle) abandon() {
	h.waited = true
	h.recycle()
}

// fanAgg aggregates one logical operation scattered across every shard
// into a single Handle: each shard's Done callback stores its result,
// and whichever callback finishes last publishes the handle; the waiter
// merges. The per-shard slots make the result deterministic regardless
// of completion order.
type fanAgg struct {
	h         *Handle
	remaining atomic.Int32
	res       []core.Result
	scan      bool // merge-sort Pairs under limit; otherwise only errors and times fold
	limit     int
}

// done returns the Done callback for shard slot i.
func (a *fanAgg) done(i int) func(*core.Op) {
	return func(o *core.Op) {
		a.res[i] = o.Res
		o.Release()
		if a.remaining.Add(-1) == 0 {
			a.h.agg = a
			a.h.publish()
		}
	}
}

// merged folds the per-shard results into the operation's one result.
func (a *fanAgg) merged() core.Result {
	if a.scan {
		return mergeScan(a.res, a.limit)
	}
	return mergeFirstErr(a.res)
}

// materialize is the one place a logical operation becomes physical
// core operations: it maps the kind to its core constructor, stamps the
// trace span, routes by key, and hands each physical op with its shard
// index to put. An operation landing on one shard completes straight
// into h; one scattered over several (a scan or sync on a sharded DB)
// gets one op per shard behind a fanAgg. One shard needs no aggregator —
// that is the only difference between the classic tree and N shards.
func (db *DB) materialize(bo *BatchOp, h *Handle, put func(shard int, op *core.Op)) {
	lo, hi := db.span(bo)
	var agg *fanAgg
	if hi-lo > 1 {
		agg = &fanAgg{h: h, res: make([]core.Result, hi-lo), scan: bo.Kind == OpScan, limit: bo.Limit}
		agg.remaining.Store(int32(hi - lo))
	}
	for si := lo; si < hi; si++ {
		op := core.AcquireOp()
		switch bo.Kind {
		case OpPut:
			op.InitInsert(bo.Key, bo.Value)
		case OpGet:
			op.InitSearch(bo.Key)
		case OpUpdate:
			op.InitUpdate(bo.Key, bo.Value)
		case OpDelete:
			op.InitDelete(bo.Key)
		case OpScan:
			op.InitRange(bo.Key, bo.End, bo.Limit)
		case OpSync:
			op.InitSync()
		default:
			panic(fmt.Sprintf("patree: invalid op kind %d", bo.Kind))
		}
		op.Span = bo.Span
		if agg == nil {
			op.Done = h.doneFn
		} else {
			op.Done = agg.done(si - lo)
		}
		put(si, op)
	}
}

// admitTo hands op to shard si's working thread, blocking while its ring
// is full (bounded-queue backpressure). The caller holds the admission
// lock; see DB.mu.
func (db *DB) admitTo(si int, op *core.Op) { db.shards[si].tree.Admit(op) }

// issue admits one logical operation and returns its future; every
// single-operation spelling (blocking, Async, Context) goes through it.
// Holding the admission lock across a whole scatter makes it atomic
// against Close: either every shard receives its piece or none does.
func (db *DB) issue(bo *BatchOp) (*Handle, error) {
	h := acquireHandle()
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		h.abandon()
		return nil, ErrClosed
	}
	db.materialize(bo, h, db.admitTo)
	db.mu.RUnlock()
	return h, nil
}

// PutAsync admits an insert-or-replace and returns its future.
func (db *DB) PutAsync(key uint64, value []byte) (*Handle, error) {
	return db.issue(&BatchOp{Kind: OpPut, Key: key, Value: value})
}

// GetAsync admits a point lookup and returns its future.
func (db *DB) GetAsync(key uint64) (*Handle, error) {
	return db.issue(&BatchOp{Kind: OpGet, Key: key})
}

// UpdateAsync admits a replace-if-present and returns its future.
func (db *DB) UpdateAsync(key uint64, value []byte) (*Handle, error) {
	return db.issue(&BatchOp{Kind: OpUpdate, Key: key, Value: value})
}

// DeleteAsync admits a delete and returns its future.
func (db *DB) DeleteAsync(key uint64) (*Handle, error) {
	return db.issue(&BatchOp{Kind: OpDelete, Key: key})
}

// ScanAsync admits a range scan over [lo, hi] (limit <= 0 = unlimited)
// and returns its future. Across shards it scatters one scan per shard
// — each with the full limit, since any single shard could own the
// first limit keys of the range — and merges on completion.
func (db *DB) ScanAsync(lo, hi uint64, limit int) (*Handle, error) {
	return db.issue(&BatchOp{Kind: OpScan, Key: lo, End: hi, Limit: limit})
}

// SyncAsync admits a sync (on every shard) and returns its future.
func (db *DB) SyncAsync() (*Handle, error) {
	return db.issue(&BatchOp{Kind: OpSync})
}
