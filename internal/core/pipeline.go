package core

// Scan read-ahead (Config.Pipelined, which patree.Open always sets): the
// read half of the pipelined polled loop of DESIGN.md §17.
//
// A range scan crossing a leaf boundary otherwise discovers each sibling
// only from the previous leaf's Next link: one device round trip per leaf,
// strictly serial. The level-1 parent the scan descends through lists its
// own leaf and the siblings after it, so readAhead reads them together,
// one command per run of adjacent page IDs (as a bulk load lays leaves
// out). Nothing is guessed: the scan visits every leaf it selects.
//
// The latch protocol keeps it correct. Before a page joins a run the tree
// takes a shared latch on it with TryAcquire; a page that is refused ends
// the run, so read-ahead never waits and cannot deadlock. The completion
// handler releases every latch on every verdict. While they are held no
// writer can latch those pages exclusively, so no write of them can be
// submitted, and the images that land are the pages' current ones.
//
// An op that reaches a page whose read-ahead is in flight parks on it
// (Tree.readAheads) instead of issuing a duplicate read. It is woken with
// the page's image when the run is reaped; if the run was dropped, it
// issues its own demand read with its own retry budget.

import (
	"github.com/patree/patree/internal/latch"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
)

// readAheadDepth bounds how many sibling leaves one scan reads ahead: at
// the default 64-pair scan length and ~20-byte entries a scan spans about
// four leaves. A longer scan falls back to serial Next-link reads past the
// window (and past this parent's last child).
const readAheadDepth = 4

// raWaiter is an op parked on an in-flight read-ahead, with the instant it
// parked (its I/O wait accrues from there).
type raWaiter struct {
	op    *Op
	since sim.Time
}

// readAhead reads the leaves scan o will walk from child idx of the
// sealed level-1 parent image page: its own and up to readAheadDepth
// siblings after it, none past the scan's end key and no more than its
// limit (a leaf holds at least one pair). A page that is resident,
// already being read or refused its latch is skipped and ends the current
// run. With no buffer there is nothing to read into, and nothing is
// issued.
func (t *Tree) readAhead(o *Op, page []byte, idx int) {
	if storage.PageLevel(page) != 1 || t.buf.Cap() == 0 {
		return
	}
	end := idx + 1 + readAheadDepth
	if o.limit > 0 {
		end = min(end, idx+o.limit)
	}
	// The run is [first, first+n); a skipped page leaves a gap that sends it.
	first, n := storage.InnerChild(page, idx), 0
	for j := idx; j < end; j++ {
		if j > idx {
			if sep, ok := storage.InnerKey(page, j-1); !ok || sep > o.endKey {
				break
			}
		}
		id := storage.InnerChild(page, j)
		if id != first+storage.PageID(n) {
			if !t.readRun(first, n) {
				return
			}
			first, n = id, 0
		}
		if _, reading := t.readAheads.Get(id); !reading && !t.resident(id) && t.tryLatch(id) {
			n++
		}
	}
	t.readRun(first, n)
}

// tryLatch takes a read-ahead's shared latch on id unless a writer holds
// or awaits the page.
func (t *Tree) tryLatch(id storage.PageID) bool {
	t.charge(metrics.CatSync, t.costs.LatchOp)
	return t.latches.TryAcquire(id, latch.Shared)
}

// readRun reads the n latched pages from first (if any) in one command,
// unless the submission queue is half full (the other half is demand
// traffic's): it then releases their latches and reports false.
func (t *Tree) readRun(first storage.PageID, n int) bool {
	if n == 0 {
		return true
	}
	if t.qp.Outstanding() >= t.cfg.QueueDepth/2 ||
		!t.submit(&ioCmd{Command: pageRead(first, n), done: (*Tree).readAheadDone}) {
		for id := first; id < first+storage.PageID(n); id++ {
			t.latches.Release(id, latch.Shared)
		}
		return false
	}
	for id := first; id < first+storage.PageID(n); id++ {
		t.readAheads.Put(id, nil)
	}
	t.stats.ReadAheads++
	return true
}

// readAheadDone installs each landed page unless it became resident
// another way, copied out of the run's buffer so one hot page cannot pin
// the whole run, then wakes the ops parked on it and releases its latch.
// An op parked on a page is handed the image, as its own demand read
// would hand it over: the miss that parked it was its visit's one lookup.
// Such a page is filled as that read would fill it, so its next lookup
// promotes it; a page no op waits on is a prefetch. An errored run has no
// budget and is dropped whole (ioDropped): its waiters issue their own
// demand reads.
func (t *Tree) readAheadDone(c *ioCmd, res ioResult, now sim.Time) {
	for i := range c.Blocks {
		id := storage.PageID(c.LBA) + storage.PageID(i)
		ws, _ := t.readAheads.Get(id)
		if res == ioOK {
			img := append([]byte(nil), c.Buf[i*storage.PageSize:(i+1)*storage.PageSize]...)
			if !t.resident(id) {
				t.fill(id, img, len(ws) == 0)
			}
			for _, w := range ws {
				w.op.ioData, w.op.ioFor = img, id
			}
		}
		t.wakeReadAhead(id, now)
		t.readAheads.Delete(id)
		t.charge(metrics.CatSync, t.costs.LatchOp)
		t.latches.Release(id, latch.Shared)
	}
}

// wakeReadAhead wakes every op parked on the read-ahead of id, crediting
// the park as I/O wait: the read they joined was doing their I/O. Also
// called from enterFailed so no waiter is stranded; the read's own
// completion still releases its latch.
func (t *Tree) wakeReadAhead(id storage.PageID, now sim.Time) {
	ws, _ := t.readAheads.Get(id)
	for _, w := range ws {
		w.op.ioWait += now.Sub(w.since)
		if t.tr != nil {
			t.tr.Emit(tcIORead, uint16(w.op.kind), w.op.seq, uint64(id), int64(w.since), int64(now.Sub(w.since)))
		}
		t.pushReady(w.op, now)
	}
	t.readAheads.Put(id, nil)
}

// resident reports whether a page is in the buffer or the in-flight
// write-back map with no side effect: no fill (unlike lookupPage), no
// lookup counted and no recency touched.
func (t *Tree) resident(id storage.PageID) bool {
	_, ok := t.inflight.Get(id)
	return ok || t.buf.Contains(id)
}
