package syncbtree

import (
	"github.com/patree/patree/internal/latch"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

// Latches is PA-Tree's latch table (internal/latch) for blocking
// simulated threads: the same shared/exclusive semantics and FIFO grants,
// but used as the paper's baselines latch, with semaphore-style blocking.
// A thread that cannot take a latch parks and is woken by the releaser,
// paying syscall and context-switch costs.
type Latches struct {
	sched *simos.Sched
	tab   *latch.Table
	woken []*simos.Parker // waiters granted by the Release in progress
}

// NewLatches creates an empty blocking latch table.
func NewLatches(sched *simos.Sched) *Latches {
	return &Latches{sched: sched, tab: latch.NewTable()}
}

// Acquire blocks th until the latch on id is held in mode m. Every call
// pays the semaphore syscall cost (CatSync), like sem_wait.
func (l *Latches) Acquire(th *simos.Thread, id storage.PageID, m latch.Mode) {
	th.Work(metrics.CatSync, simos.SyscallCost)
	if l.tab.TryAcquire(id, m) {
		return
	}
	p := l.sched.NewParker()
	// The grant only records the waiter: Release wakes it once the table
	// is done, since charging the wake here would yield inside the
	// table's grant pass, which is not re-entrant.
	l.tab.Acquire(id, m, func() { l.woken = append(l.woken, p) })
	p.Park(th) // the releaser's grant has taken the latch on our behalf
}

// Release drops a latch and wakes the waiters it granted, in FIFO order,
// paying the sem_post syscall cost per wake.
func (l *Latches) Release(th *simos.Thread, id storage.PageID, m latch.Mode) {
	l.tab.Release(id, m)
	woken := l.woken
	l.woken = nil
	for _, p := range woken {
		th.Work(metrics.CatSync, simos.SyscallCost)
		p.Unpark()
	}
}

// Waits returns how many acquisitions had to block.
func (l *Latches) Waits() uint64 { return l.tab.Waits() }

// CASLatch is a test-and-set spinlock used by the lock-free baselines
// (Blink-Tree, LCB-Tree): acquiring costs only a CAS (no syscall), but
// contention burns CPU spinning and yields between attempts.
type CASLatch struct {
	sched *simos.Sched
	held  map[storage.PageID]bool
}

// NewCASLatch creates a CAS-latch namespace.
func NewCASLatch(sched *simos.Sched) *CASLatch {
	return &CASLatch{sched: sched, held: make(map[storage.PageID]bool)}
}

// Lock spins until the latch on id is taken.
func (c *CASLatch) Lock(th *simos.Thread, id storage.PageID) {
	const casCost = 30 // nanoseconds per CAS attempt
	for {
		th.Work(metrics.CatSync, casCost)
		if !c.held[id] {
			c.held[id] = true
			return
		}
		// Contended: brief spin then yield the core.
		th.Work(metrics.CatSync, 200)
		th.Yield()
	}
}

// TryLock attempts a single CAS.
func (c *CASLatch) TryLock(th *simos.Thread, id storage.PageID) bool {
	th.Work(metrics.CatSync, 30)
	if c.held[id] {
		return false
	}
	c.held[id] = true
	return true
}

// Unlock releases the latch on id.
func (c *CASLatch) Unlock(th *simos.Thread, id storage.PageID) {
	th.Work(metrics.CatSync, 30)
	if !c.held[id] {
		panic("syncbtree: CAS unlock of free latch")
	}
	delete(c.held, id)
}
