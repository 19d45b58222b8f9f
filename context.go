package patree

import (
	"context"

	"github.com/patree/patree/internal/core"
)

// WaitContext blocks until the operation completes or ctx is done,
// whichever comes first.
//
// If it returns nil or an operation error, the handle is still owned by
// the caller exactly as after Wait. If it returns the context's error,
// the handle has been detached: the operation is NOT cancelled — it is
// already in flight on the working thread and completes there, keeping
// the tree consistent — but its result is discarded and the handle is
// reclaimed by the completion. After a detach the caller must not call
// any method on the handle (no Release either; reclamation is the
// completion's job).
func (h *Handle) WaitContext(ctx context.Context) error {
	_, err := h.waitContext(ctx)
	return err
}

// waitContext is WaitContext that also reports whether the handle was
// detached, so internal callers never have to look at a handle they may
// no longer own.
func (h *Handle) waitContext(ctx context.Context) (detached bool, err error) {
	if h.waited {
		return false, h.res.Err
	}
	h.checkLive("WaitContext")
	select {
	case <-h.ch:
	case <-ctx.Done():
		if h.state.CompareAndSwap(hPending, hDetached) {
			// Ownership transferred to the completion callback.
			return true, ctx.Err()
		}
		// The operation completed concurrently with cancellation; the
		// token is (or is about to be) in the channel, so report the real
		// outcome rather than a spurious cancellation.
		<-h.ch
	}
	h.resolve()
	return false, h.res.Err
}

// doContext is do with cancellation: on ctx expiry the call returns
// immediately with the context's error while the operation (possibly
// scattered across shards) finishes — and is discarded — on the working
// threads. Nothing is allocated or admitted when the context is already
// dead.
func (db *DB) doContext(ctx context.Context, bo BatchOp) (core.Result, error) {
	if err := ctx.Err(); err != nil {
		return core.Result{}, err
	}
	h, err := db.issue(&bo)
	if err != nil {
		return core.Result{}, err
	}
	detached, err := h.waitContext(ctx)
	if detached {
		// The completion recycles the handle.
		return core.Result{}, err
	}
	res := h.res
	h.recycle()
	return res, err
}

// PutContext is Put unblocking on ctx cancellation.
func (db *DB) PutContext(ctx context.Context, key uint64, value []byte) error {
	_, err := db.doContext(ctx, BatchOp{Kind: OpPut, Key: key, Value: value})
	return err
}

// GetContext is Get unblocking on ctx cancellation.
func (db *DB) GetContext(ctx context.Context, key uint64) ([]byte, bool, error) {
	res, err := db.doContext(ctx, BatchOp{Kind: OpGet, Key: key})
	return res.Value, res.Found, err
}

// UpdateContext is Update unblocking on ctx cancellation.
func (db *DB) UpdateContext(ctx context.Context, key uint64, value []byte) (bool, error) {
	res, err := db.doContext(ctx, BatchOp{Kind: OpUpdate, Key: key, Value: value})
	return res.Found, err
}

// DeleteContext is Delete unblocking on ctx cancellation.
func (db *DB) DeleteContext(ctx context.Context, key uint64) (bool, error) {
	res, err := db.doContext(ctx, BatchOp{Kind: OpDelete, Key: key})
	return res.Found, err
}

// ScanContext is Scan unblocking on ctx cancellation.
func (db *DB) ScanContext(ctx context.Context, lo, hi uint64, limit int) ([]KV, error) {
	res, err := db.doContext(ctx, BatchOp{Kind: OpScan, Key: lo, End: hi, Limit: limit})
	return res.Pairs, err
}

// SyncContext is Sync unblocking on ctx cancellation. Note that a
// cancelled SyncContext does not undo the flush: it proceeds on the
// working thread(s).
func (db *DB) SyncContext(ctx context.Context) error {
	_, err := db.doContext(ctx, BatchOp{Kind: OpSync})
	return err
}
