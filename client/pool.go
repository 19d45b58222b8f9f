package client

import (
	"sync/atomic"

	patree "github.com/patree/patree"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
)

// Pool spreads operations over several Conns to one server, so many
// issuing goroutines use multiple pipelined sockets instead of
// serializing on one reader/writer pair. It implements patree.Store.
// Order holds per key: a point op travels on the connection its key
// hashes to (core.ShardOf). Scans, syncs and batches go round-robin, a
// batch whole on one connection, ordered against nothing else.
type Pool struct {
	conns []*Conn
	next  atomic.Uint64
}

// Pool is a Store too: swapping a Conn for a Pool changes nothing for
// callers.
var _ patree.Store = (*Pool)(nil)

// DialPool opens n connections to addr. On any dial failure the
// already-opened connections are closed and the error returned.
func DialPool(addr string, n int, opts Options) (*Pool, error) {
	if n <= 0 {
		n = 1
	}
	p := &Pool{conns: make([]*Conn, 0, n)}
	for i := 0; i < n; i++ {
		c, err := Dial(addr, opts)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.conns = append(p.conns, c)
	}
	return p, nil
}

// pick returns the next connection round-robin.
func (p *Pool) pick() *Conn {
	return p.conns[p.next.Add(1)%uint64(len(p.conns))]
}

// byKey returns the connection that carries every point op on key.
func (p *Pool) byKey(key uint64) *Conn {
	return p.conns[core.ShardOf(key, len(p.conns))]
}

// Close closes every pooled connection, returning the first error.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats sums the wire counters of every pooled connection.
func (p *Pool) Stats() Stats {
	var s Stats
	for _, c := range p.conns {
		cs := c.Stats()
		metrics.Fold(&s, &cs)
	}
	return s
}

// Put inserts or replaces key.
func (p *Pool) Put(key uint64, value []byte) error { return p.byKey(key).Put(key, value) }

// Get returns the value stored under key.
func (p *Pool) Get(key uint64) ([]byte, bool, error) { return p.byKey(key).Get(key) }

// Update replaces key only if present, reporting whether it was.
func (p *Pool) Update(key uint64, value []byte) (bool, error) { return p.byKey(key).Update(key, value) }

// Delete removes key, reporting whether it was present.
func (p *Pool) Delete(key uint64) (bool, error) { return p.byKey(key).Delete(key) }

// Scan returns pairs with keys in [lo, hi] ascending, at most limit.
func (p *Pool) Scan(lo, hi uint64, limit int) ([]patree.KV, error) {
	return p.pick().Scan(lo, hi, limit)
}

// Sync makes all acknowledged updates durable on the server.
func (p *Pool) Sync() error { return p.pick().Sync() }

// PutAsync admits an insert-or-replace and returns its future.
func (p *Pool) PutAsync(key uint64, value []byte) (*patree.Handle, error) {
	return p.byKey(key).PutAsync(key, value)
}

// GetAsync admits a point lookup and returns its future.
func (p *Pool) GetAsync(key uint64) (*patree.Handle, error) { return p.byKey(key).GetAsync(key) }

// UpdateAsync admits a replace-if-present and returns its future.
func (p *Pool) UpdateAsync(key uint64, value []byte) (*patree.Handle, error) {
	return p.byKey(key).UpdateAsync(key, value)
}

// DeleteAsync admits a delete and returns its future.
func (p *Pool) DeleteAsync(key uint64) (*patree.Handle, error) { return p.byKey(key).DeleteAsync(key) }

// ScanAsync admits a range scan and returns its future.
func (p *Pool) ScanAsync(lo, hi uint64, limit int) (*patree.Handle, error) {
	return p.pick().ScanAsync(lo, hi, limit)
}

// SyncAsync admits a sync and returns its future.
func (p *Pool) SyncAsync() (*patree.Handle, error) { return p.pick().SyncAsync() }

// NewBatch returns a batch bound to one pooled connection.
func (p *Pool) NewBatch() *patree.Batch { return p.pick().NewBatch() }
