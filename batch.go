package patree

import (
	"fmt"
	"sync"

	"github.com/patree/patree/internal/core"
)

// Batch stages many heterogeneous operations and admits them in one
// admission transaction, so a single caller goroutine can put the
// paper's queue depth in flight with one call instead of one ring
// hand-off (and one potential wakeup) per operation. The staged
// operations complete as a group: Wait returns once every one of them
// has finished.
//
// Usage: stage with Put/Get/... (each returns the operation's index),
// Commit (or TryCommit), Wait, read results by index, then Release. A
// released Batch must not be reused; call NewBatch again — it is
// pooled, so the steady state allocates nothing.
//
// A Batch is backend-agnostic: DB.NewBatch binds it to the embedded
// engine's admission rings, NewRemoteBatch to a BatchCommitter (the
// network client). Staging records operations in a neutral form; the
// backend materializes them at commit time.
//
// Over a sharded DB the batch splits into per-shard sub-batches at
// commit: each shard receives its members as one contiguous ring
// transaction in staging order. Commit blocks per shard as needed;
// TryCommit reserves room on every shard before publishing anywhere, so
// it remains all-or-nothing — ErrBacklog means no shard admitted
// anything and the batch stays staged for a retry. Scans and syncs
// staged on a sharded batch fan out to every shard and their index
// reports the merged result.
//
// A Batch is not safe for concurrent use by multiple goroutines.
type Batch struct {
	db        *DB            // embedded backend (nil for remote batches)
	committer BatchCommitter // remote backend (nil for DB batches)
	// staged are the logical operations in staging order; handles[i] is
	// operation i's future.
	staged    []BatchOp
	handles   []*Handle
	committed bool
	// groups/resv are the embedded backend's commit scratch, indexed by
	// shard: the physical core operations bound for each shard in staging
	// order (a logical scan/sync over N shards becomes N physical ops
	// behind one handle), and the ring span TryCommit reserved for them.
	// Kept on the batch so pooled reuse re-admits without allocating.
	groups [][]*core.Op
	resv   []core.Reservation
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// NewBatch returns an empty batch bound to db.
func (db *DB) NewBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.db = db
	b.committed = false
	return b
}

// Stage records op and returns its index. It is the one way an
// operation reaches a batch: Put, Get, ... spell it, and a serving tier
// stages the ops it decodes off the wire, trace span included. An
// invalid kind panics, like the other misuse checks.
func (b *Batch) Stage(op BatchOp) int {
	if op.Kind < OpPut || op.Kind > OpSync {
		panic(fmt.Sprintf("patree: Batch.Stage of invalid op kind %d", op.Kind))
	}
	if b.committed {
		panic(fmt.Sprintf("patree: Batch.%s staged after Commit", op.Kind))
	}
	b.staged = append(b.staged, op)
	b.handles = append(b.handles, acquireHandle())
	return len(b.handles) - 1
}

// Put stages an insert-or-replace and returns its index. The value must
// not be mutated until the batch is committed and operation's result
// delivered.
func (b *Batch) Put(key uint64, value []byte) int {
	return b.Stage(BatchOp{Kind: OpPut, Key: key, Value: value})
}

// Get stages a point lookup and returns its index.
func (b *Batch) Get(key uint64) int {
	return b.Stage(BatchOp{Kind: OpGet, Key: key})
}

// Update stages a replace-if-present and returns its index.
func (b *Batch) Update(key uint64, value []byte) int {
	return b.Stage(BatchOp{Kind: OpUpdate, Key: key, Value: value})
}

// Delete stages a delete and returns its index.
func (b *Batch) Delete(key uint64) int {
	return b.Stage(BatchOp{Kind: OpDelete, Key: key})
}

// Scan stages a range scan over [lo, hi] (limit <= 0 = unlimited) and
// returns its index.
func (b *Batch) Scan(lo, hi uint64, limit int) int {
	return b.Stage(BatchOp{Kind: OpScan, Key: lo, End: hi, Limit: limit})
}

// Sync stages a sync (of every shard) and returns its index.
func (b *Batch) Sync() int {
	return b.Stage(BatchOp{Kind: OpSync})
}

// Len returns the number of staged (logical) operations.
func (b *Batch) Len() int { return len(b.handles) }

// SetSpan attaches a trace span id to staged operation i (0 clears it).
// The backend propagates it to the engine, which emits a link event
// tying its own operation record to the span — the hook a serving tier
// uses to stitch client, server and per-shard traces into one timeline.
// Must be called between staging and Commit.
func (b *Batch) SetSpan(i int, span uint64) {
	if b.committed {
		panic("patree: Batch.SetSpan after Commit")
	}
	if i < 0 || i >= len(b.staged) {
		panic(fmt.Sprintf("patree: Batch.SetSpan(%d) out of range [0,%d)", i, len(b.staged)))
	}
	b.staged[i].Span = span
}

// dropOps releases materialized-but-unadmitted physical ops (a commit
// attempt that failed); the staged ops and handles remain intact for a
// retry.
func (b *Batch) dropOps() {
	for _, ops := range b.groups {
		for _, o := range ops {
			o.Release()
		}
	}
	b.clearGroups()
}

// clearGroups empties the per-shard scratch without keeping references
// to operations the backend now owns (or that went back to their pool).
func (b *Batch) clearGroups() {
	for si, ops := range b.groups {
		clear(ops)
		b.groups[si] = ops[:0]
	}
}

// Commit admits every staged operation in order as one transaction per
// shard's admission ring. If a ring is full it blocks until that
// working thread frees space (backpressure; a remote batch returns once
// sent, and the server waits for room in its stead — see the client
// package). Commit may be called once; after it the batch only serves
// Wait, the accessors and Release.
func (b *Batch) Commit() error {
	if b.committed {
		panic("patree: Batch.Commit called twice")
	}
	return b.commit(false)
}

// TryCommit is Commit without blocking: if the backend cannot accept
// the whole batch as one transaction right now it returns ErrBacklog
// and admits nothing anywhere — room is reserved on every shard's ring
// before anything is published, and the reservations of the shards that
// had space are aborted when a later one is full. The batch stays staged
// and may be retried.
func (b *Batch) TryCommit() error {
	if b.committed {
		panic("patree: Batch.TryCommit after Commit")
	}
	return b.commit(true)
}

// commit is the one body behind Commit and TryCommit: materialize the
// staged operations into per-shard groups, admit them, and on refusal
// release the physical ops so the batch stays staged for a retry.
func (b *Batch) commit(try bool) error {
	if len(b.staged) == 0 {
		b.committed = true
		return nil
	}
	if b.committer != nil {
		return b.commitRemote(try)
	}
	n := len(b.db.shards)
	if cap(b.groups) < n {
		b.groups = make([][]*core.Op, n)
		b.resv = make([]core.Reservation, n)
	}
	b.groups, b.resv = b.groups[:n], b.resv[:n]
	group := func(si int, op *core.Op) { b.groups[si] = append(b.groups[si], op) }
	for i := range b.staged {
		b.db.materialize(&b.staged[i], b.handles[i], group)
	}
	if err := b.admit(try); err != nil {
		b.dropOps()
		return err
	}
	b.finishCommit()
	return nil
}

// admit hands the materialized groups to their shards. The two modes
// differ only in block-versus-reserve: Commit lets each ring's
// backpressure hold it; TryCommit claims room on every shard first and
// publishes only once all claims hold — one shard is that loop with N = 1.
func (b *Batch) admit(try bool) error {
	db := b.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	if !try {
		for si, ops := range b.groups {
			if len(ops) > 0 {
				db.shards[si].tree.AdmitBatch(ops)
			}
		}
		return nil
	}
	for si, ops := range b.groups {
		r, err := db.shards[si].tree.TryReserve(len(ops))
		if err != nil {
			for _, prev := range b.resv[:si] {
				prev.Abort()
			}
			return mapErr(err)
		}
		b.resv[si] = r
	}
	for si, ops := range b.groups {
		b.resv[si].Publish(ops)
	}
	return nil
}

// commitRemote delegates admission to the BatchCommitter. On error the
// batch stays staged (the committer resolved nothing); on success the
// committer owns delivery of every result.
func (b *Batch) commitRemote(try bool) error {
	resolve := make([]func(Result), len(b.handles))
	for i, h := range b.handles {
		resolve[i] = h.remoteResolve
	}
	if err := b.committer.CommitStaged(b.staged, resolve, try); err != nil {
		return err
	}
	b.finishCommit()
	return nil
}

// finishCommit drops the admitted ops: they are owned by the backend
// now and their results are delivered through the handles, so the batch
// must not keep references past this point.
func (b *Batch) finishCommit() {
	b.committed = true
	b.clearGroups()
	clear(b.staged)
	b.staged = b.staged[:0]
}

// Wait blocks until every committed operation has completed and returns
// the first error among them in staging order (nil if all succeeded).
func (b *Batch) Wait() error {
	if !b.committed {
		panic("patree: Batch.Wait before Commit")
	}
	var first error
	for _, h := range b.handles {
		if err := h.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// handleAt guards the accessors: reading a result slot before Commit
// would block forever on a completion that can never be delivered, and
// an out-of-range index (including any index after Release) would read
// another operation's — or a recycled — slot. Both misuses fail loudly
// instead.
func (b *Batch) handleAt(what string, i int) *Handle {
	if i < 0 || i >= len(b.handles) {
		panic(fmt.Sprintf("patree: Batch.%s(%d) out of range [0,%d) — staged indexes are only valid between Commit and Release", what, i, len(b.handles)))
	}
	if !b.committed {
		panic(fmt.Sprintf("patree: Batch.%s(%d) before Commit — results exist only after the batch is committed", what, i))
	}
	return b.handles[i]
}

// Err waits for operation i and returns its error.
func (b *Batch) Err(i int) error { return b.handleAt("Err", i).Err() }

// Found waits for operation i and reports whether its key existed.
func (b *Batch) Found(i int) bool { return b.handleAt("Found", i).Found() }

// Value waits for operation i and returns its point-lookup value.
func (b *Batch) Value(i int) []byte { return b.handleAt("Value", i).Value() }

// Pairs waits for operation i and returns its range-scan results.
func (b *Batch) Pairs(i int) []KV { return b.handleAt("Pairs", i).Pairs() }

// Release waits for any committed operations, then returns the batch,
// its handles and any never-committed staged operations to their pools.
// Result slices previously returned by the accessors stay valid.
func (b *Batch) Release() {
	// A remote TryCommit that failed may have materialized nothing; an
	// embedded one released its physical ops already. Staged entries that
	// never committed are simply dropped — nothing is in flight.
	b.dropOps()
	clear(b.staged)
	b.staged = b.staged[:0]
	for i, h := range b.handles {
		if b.committed {
			h.Release()
		} else {
			h.abandon()
		}
		b.handles[i] = nil
	}
	b.handles = b.handles[:0]
	b.db = nil
	b.committer = nil
	b.committed = false
	batchPool.Put(b)
}
