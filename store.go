package patree

// Store is the operation surface shared by every PA-Tree access path:
// the embedded engine (*DB) and the network client (client.Conn)
// implement it, so code written against Store runs unchanged whether
// the tree lives in-process or behind a server. The semantics are those
// documented on *DB; implementation-specific behavior (what "admission
// blocks" means over a network, for instance) is documented on the
// respective implementation.
//
// The async variants return this package's *Handle future and NewBatch
// returns this package's *Batch, for both implementations: results,
// pooling, Wait/WaitContext and accessor semantics are identical, which
// is what makes the two interchangeable. Non-embedded implementations
// mint those types through NewRemoteHandle and NewRemoteBatch.
type Store interface {
	// Put inserts or replaces key.
	Put(key uint64, value []byte) error
	// Get returns the value stored under key.
	Get(key uint64) ([]byte, bool, error)
	// Update replaces key only if present, reporting whether it was.
	Update(key uint64, value []byte) (bool, error)
	// Delete removes key, reporting whether it was present.
	Delete(key uint64) (bool, error)
	// Scan returns pairs with keys in [lo, hi] ascending, at most limit
	// (<= 0 = all).
	Scan(lo, hi uint64, limit int) ([]KV, error)
	// Sync makes all acknowledged updates durable.
	Sync() error

	// PutAsync admits an insert-or-replace and returns its future.
	PutAsync(key uint64, value []byte) (*Handle, error)
	// GetAsync admits a point lookup and returns its future.
	GetAsync(key uint64) (*Handle, error)
	// UpdateAsync admits a replace-if-present and returns its future.
	UpdateAsync(key uint64, value []byte) (*Handle, error)
	// DeleteAsync admits a delete and returns its future.
	DeleteAsync(key uint64) (*Handle, error)
	// ScanAsync admits a range scan and returns its future.
	ScanAsync(lo, hi uint64, limit int) (*Handle, error)
	// SyncAsync admits a sync and returns its future.
	SyncAsync() (*Handle, error)

	// NewBatch returns an empty batch bound to this store. Committing it
	// admits every staged operation as one transaction (TryCommit:
	// all-or-nothing, failing with ErrBacklog under backpressure).
	NewBatch() *Batch

	// Close shuts the store down. Operations admitted before Close
	// complete; later ones fail with ErrClosed.
	Close() error
}

// The embedded engine is a Store. (client.Conn asserts the same in its
// own package; the two are drop-in interchangeable.)
var _ Store = (*DB)(nil)
