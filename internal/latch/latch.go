// Package latch implements the operation latches of §III-B: per-node
// shared/exclusive logical flags managed entirely by the working thread.
// No OS synchronization is involved — a latch is plain data, and granting
// one is a function call — which is exactly the property that lets PA-Tree
// avoid the semaphore and context-switch costs the baselines pay.
//
// Per the paper, each node has a read latch count r, a write latch count
// w, and a FIFO pending queue. A write latch is granted when r==0 && w==0,
// a read latch when w==0. Grants are first-request-first-grant: a request
// that arrives while others are queued waits behind them, and a release
// promotes pending requests from the front until the first non-grantable
// one.
package latch

import (
	"fmt"

	"github.com/patree/patree/internal/pagemap"
	"github.com/patree/patree/internal/storage"
)

// Mode is the ownership flavor of a latch.
type Mode int

const (
	// Shared is read ownership; any number may hold it concurrently.
	Shared Mode = iota
	// Exclusive is write ownership; it excludes all other holders.
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// request is a queued latch request.
type request struct {
	mode  Mode
	grant func()
}

// nodeLatch is the per-node latch state.
type nodeLatch struct {
	r, w    int
	pending []request
}

// Table holds latch state for all nodes, indexed by an open-addressed
// page table (internal/pagemap): a node visit's acquire and release are
// three probes of one slot array. State is allocated lazily and reclaimed
// when a node returns to fully-unlatched with no waiters, so the index's
// size tracks the nodes latched now, not the tree.
type Table struct {
	nodes pagemap.Map[*nodeLatch]
	// free recycles reclaimed nodeLatch records (and their pending-queue
	// capacity), so the steady-state acquire/release cycle of an
	// uncontended node allocates nothing.
	free   []*nodeLatch
	grants uint64
	waits  uint64
}

// NewTable returns an empty latch table.
func NewTable() *Table {
	return &Table{}
}

// Acquire requests a latch on id in the given mode. If the latch is
// granted immediately it returns true (grant is NOT called). Otherwise
// the request is queued and grant will be called by a later Release, at
// which point the latch is held.
func (t *Table) Acquire(id storage.PageID, mode Mode, grant func()) bool {
	ref := t.nodes.Ref(id)
	nl := *ref
	if nl == nil {
		if n := len(t.free); n > 0 {
			nl = t.free[n-1]
			t.free[n-1] = nil
			t.free = t.free[:n-1]
		} else {
			nl = &nodeLatch{}
		}
		*ref = nl
	}
	// First-request-first-grant: if anyone is queued, go behind them even
	// if the current counts would admit us (prevents writer starvation).
	if len(nl.pending) == 0 && nl.admits(mode) {
		nl.take(mode)
		t.grants++
		return true
	}
	nl.pending = append(nl.pending, request{mode: mode, grant: grant})
	t.waits++
	return false
}

// TryAcquire takes a latch on id only if Acquire would grant it at once,
// and otherwise leaves the table as it found it: it never queues.
func (t *Table) TryAcquire(id storage.PageID, mode Mode) bool {
	if nl, _ := t.nodes.Get(id); nl != nil && (len(nl.pending) > 0 || !nl.admits(mode)) {
		return false
	}
	return t.Acquire(id, mode, nil) // granted: nothing queues
}

// admits reports whether a latch in the given mode can be taken now.
func (nl *nodeLatch) admits(mode Mode) bool {
	if mode == Exclusive {
		return nl.r == 0 && nl.w == 0
	}
	return nl.w == 0
}

func (nl *nodeLatch) take(mode Mode) {
	if mode == Exclusive {
		nl.w++
	} else {
		nl.r++
	}
}

// Release drops a latch held on id in the given mode, then promotes
// pending requests from the front of the queue until the first one that
// cannot be granted. Each promoted request's grant callback runs before
// Release returns; callbacks must not re-enter the table for the same id
// synchronously (PA-Tree's callbacks only move operations to the ready
// set, satisfying this).
func (t *Table) Release(id storage.PageID, mode Mode) {
	nl, _ := t.nodes.Get(id)
	if nl == nil {
		panic(fmt.Sprintf("latch: release of unlatched node %d", id))
	}
	if mode == Exclusive {
		if nl.w == 0 {
			panic(fmt.Sprintf("latch: X-release with w=0 on node %d", id))
		}
		nl.w--
	} else {
		if nl.r == 0 {
			panic(fmt.Sprintf("latch: S-release with r=0 on node %d", id))
		}
		nl.r--
	}
	for len(nl.pending) > 0 && nl.admits(nl.pending[0].mode) {
		req := nl.pending[0]
		// Shift-dequeue so the slice keeps its base pointer and capacity
		// for reuse via the free list; queues are short, the copy is cheap.
		copy(nl.pending, nl.pending[1:])
		nl.pending[len(nl.pending)-1] = request{}
		nl.pending = nl.pending[:len(nl.pending)-1]
		nl.take(req.mode)
		t.grants++
		req.grant()
	}
	if nl.r == 0 && nl.w == 0 && len(nl.pending) == 0 {
		t.nodes.Delete(id)
		t.free = append(t.free, nl)
	}
}

// Held reports the current (r, w) counts for id.
func (t *Table) Held(id storage.PageID) (r, w int) {
	if nl, _ := t.nodes.Get(id); nl != nil {
		return nl.r, nl.w
	}
	return 0, 0
}

// PendingCount returns the number of queued requests on id.
func (t *Table) PendingCount(id storage.PageID) int {
	if nl, _ := t.nodes.Get(id); nl != nil {
		return len(nl.pending)
	}
	return 0
}

// ActiveNodes returns the number of nodes with any latch state.
func (t *Table) ActiveNodes() int { return t.nodes.Len() }

// Grants returns the cumulative number of granted latches.
func (t *Table) Grants() uint64 { return t.grants }

// Waits returns the cumulative number of requests that had to queue —
// the contention measure used by the Figure 12 analysis.
func (t *Table) Waits() uint64 { return t.waits }

// ResetStats zeroes the cumulative counters.
func (t *Table) ResetStats() { t.grants, t.waits = 0, 0 }
