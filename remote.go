package patree

import "github.com/patree/patree/internal/core"

// This file is the bridge a non-embedded Store implementation (package
// client, or any other transport) uses to mint this package's *Handle
// and *Batch types, so remote callers get the exact same futures,
// accessors and pooling as embedded ones. Embedders never need these.

// Result is the outcome of one operation as delivered to a Handle by a
// remote Store implementation. The zero value plus Err is a failed
// operation; Found/Value/Pairs follow the semantics of the Handle
// accessors.
type Result struct {
	// Found reports whether the key existed (get/update/delete) or a
	// previous value was replaced (put).
	Found bool
	// Value is the value found by a point lookup.
	Value []byte
	// Pairs are range-scan results in ascending key order.
	Pairs []KV
	// Err is non-nil if the operation failed.
	Err error
}

// NewRemoteHandle returns a pending Handle together with its resolve
// function. The caller (a remote Store implementation) returns the
// handle to the issuing goroutine and arranges for resolve to be called
// exactly once, from any goroutine, when the operation's outcome is
// known — including transport failures, which should resolve with
// ErrBatchAborted (or ErrClosed for a locally initiated shutdown) so
// waiters never block forever. After resolve the handle follows the
// normal lifecycle: the owner Waits, reads results, and Releases.
func NewRemoteHandle() (*Handle, func(Result)) {
	h := acquireHandle()
	return h, h.remoteResolve
}

// remoteResolve adapts a public Result into the handle's single
// fulfilment path. It is a method (not a per-call closure) so a pooled
// handle keeps one resolve function for its whole lifetime.
func (h *Handle) remoteResolve(r Result) {
	h.deliver(core.Result{Found: r.Found, Value: r.Value, Pairs: r.Pairs, Err: r.Err})
}

// OpKind identifies one staged batch operation for a BatchCommitter.
type OpKind uint8

// Staged operation kinds, in the order the stage methods produce them.
const (
	OpPut OpKind = iota + 1
	OpGet
	OpUpdate
	OpDelete
	OpScan
	OpSync
)

var opKindNames = [...]string{"invalid", "put", "get", "update", "delete", "scan", "sync"}

// String returns the lowercase wire name of the kind.
func (k OpKind) String() string {
	if k > OpSync {
		return opKindNames[0]
	}
	return opKindNames[k]
}

// BatchOp is one operation staged on a Batch, in the neutral form
// handed to a BatchCommitter: Key/Value for point ops, Key/End/Limit
// for scans.
type BatchOp struct {
	Kind  OpKind
	Key   uint64
	End   uint64
	Limit int
	Value []byte
	// Span is the operation's trace span id (0 = unsampled). Set via
	// Batch.SetSpan by a serving tier that propagates request-scoped
	// trace context; the embedded backend forwards it to the engine op so
	// the merged trace can link tiers.
	Span uint64
}

// BatchCommitter is the admission backend of a remotely-built Batch
// (see NewRemoteBatch).
type BatchCommitter interface {
	// CommitStaged admits the staged operations as one transaction.
	// resolve[i] must eventually be called exactly once with op i's
	// outcome — unless CommitStaged returns an error, in which case
	// nothing may be resolved and the batch stays staged for a retry
	// (TryCommit returning ErrBacklog relies on this). When try is set
	// the commit must not block on backpressure: refuse with ErrBacklog,
	// atomically, instead. ops and resolve are only valid until
	// CommitStaged returns; retain copies if admission outlives the call.
	CommitStaged(ops []BatchOp, resolve []func(Result), try bool) error
}

// NewRemoteBatch returns an empty Batch whose commit is delegated to c.
// Staging, accessors, Wait and Release behave exactly as on a
// DB-bound batch.
func NewRemoteBatch(c BatchCommitter) *Batch {
	b := batchPool.Get().(*Batch)
	b.committer = c
	b.committed = false
	return b
}
