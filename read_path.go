package patree

import (
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/sim"
)

// This file routes eligible reads around the admission inbox when the DB
// was opened with Options.ConcurrentReads: Get/Scan (in every single-op
// spelling, through DB.issue) first attempt the optimistic B-link descent
// over the shard's published-page table from the calling goroutine. The
// fast path answers only when it can prove the answer current — otherwise
// (key has a pending write, page not published, too much churn) the read
// falls back to the pipeline, which is always correct. See
// internal/core/reader.go and DESIGN.md §15.

// tryConcRead attempts to answer a get or scan optimistically. ok=false
// means the caller must take the pipeline. The closed check runs under
// the shared admission lock so a concurrent Close keeps its guarantee:
// reads observing closed fail with ErrClosed instead of serving from a
// frozen table. Across shards every shard must serve a scan for the fast
// path to win — a partial scatter falls back wholesale so the merged
// result never mixes fast-path and pipeline snapshots of one request.
func (db *DB) tryConcRead(bo *BatchOp) (core.Result, bool) {
	if !db.concReads || (bo.Kind != OpGet && bo.Kind != OpScan) {
		return core.Result{}, false
	}
	lo, hi := db.span(bo)
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return core.Result{}, false
	}
	var one [1]core.Result // a read landing on one shard needs no heap
	rs := one[:0]
	for _, s := range db.shards[lo:hi] {
		var r core.Result
		var served bool
		if bo.Kind == OpGet {
			r.Value, r.Found, served = s.tree.ConcurrentGet(bo.Key)
		} else {
			r.Pairs, served = s.tree.ConcurrentScan(bo.Key, bo.End, bo.Limit)
		}
		if !served {
			return core.Result{}, false
		}
		now := sim.Time(s.tree.NowNanos())
		r.Admitted, r.Completed = now, now
		rs = append(rs, r)
	}
	return mergeScan(rs, bo.Limit), true
}
