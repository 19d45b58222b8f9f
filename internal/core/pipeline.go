package core

// Scan read-ahead (Config.Pipelined): the read half of the pipelined
// polled loop of DESIGN.md §17.
//
// A range scan crossing a leaf boundary otherwise discovers each sibling
// only from the previous leaf's Next link: one device round trip per leaf,
// strictly serial. The level-1 parent the scan descends through lists the
// same siblings in order, so readAhead issues their reads together and the
// serial chain collapses into one parallel batch. Nothing is guessed: the
// scan visits every sibling up to its end key.
//
// The latch protocol keeps it correct. Before each read the tree takes a
// shared latch on the sibling with TryAcquire and skips the sibling when
// that is refused, so read-ahead never waits and cannot deadlock. The
// completion handler releases the latch on every verdict. While it is held
// no writer can latch the page exclusively, so no write of it can be
// submitted, and the image that lands is the page's current one.
//
// An op that reaches a sibling whose read-ahead is in flight parks on it
// (Tree.readAheads) instead of issuing a duplicate read. It is woken when
// the read is reaped; if the image was dropped, it issues its own demand
// read with its own retry budget.

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

// readAhead reads the siblings that scan o will walk after child idx of
// the level-1 parent node: at most readAheadDepth of them, none past the
// scan's end key, none resident or already being read, and none once the
// submission queue is half full (the other half is demand traffic's). With
// no buffer there is nothing to read into, and nothing is issued.
func (t *Tree) readAhead(o *Op, node *storage.Node, idx int) {
	if node.Level != 1 || t.bufferCap() == 0 {
		return
	}
	issued := 0
	for j := idx + 1; j < len(node.Children) && issued < readAheadDepth; j++ {
		if node.Keys[j-1] > o.endKey || t.qp.Outstanding() >= t.cfg.QueueDepth/2 {
			return
		}
		id := node.Children[j]
		if _, reading := t.readAheads[id]; reading || t.resident(id) {
			continue
		}
		t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
		if !t.latches.TryAcquire(id, latch.Shared) {
			continue // a writer holds or awaits the page: read it on demand
		}
		if !t.submit(&ioCmd{Command: pageRead(id), done: (*Tree).readAheadDone}) {
			t.latches.Release(id, latch.Shared)
			return
		}
		if t.readAheads == nil {
			t.readAheads = make(map[storage.PageID][]raWaiter)
		}
		t.readAheads[id] = nil
		t.stats.ReadAheads++
		issued++
	}
}

// readAheadDone installs a landed image unless the page became resident
// another way, wakes the ops parked on it and releases the read's latch.
// An errored read-ahead has no budget and is dropped (ioDropped): its
// waiters issue their own demand reads.
func (t *Tree) readAheadDone(c *ioCmd, res ioResult, now sim.Time) {
	id := storage.PageID(c.LBA)
	if res == ioOK && !t.resident(id) {
		t.fillOnRead(id, c.Buf)
	}
	t.wakeReadAhead(id, now)
	delete(t.readAheads, id)
	t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
	t.latches.Release(id, latch.Shared)
}

// wakeReadAhead wakes every op parked on the read-ahead of id, crediting
// the park as I/O wait: the read they joined was doing their I/O. Also
// called from enterFailed so no waiter is stranded; the read's own
// completion still releases its latch.
func (t *Tree) wakeReadAhead(id storage.PageID, now sim.Time) {
	for _, w := range t.readAheads[id] {
		w.op.ioWait += now.Sub(w.since)
		if t.tr != nil {
			t.tr.Emit(tcIORead, uint16(w.op.kind), w.op.seq, uint64(id), int64(w.since), int64(now.Sub(w.since)))
		}
		t.pushReady(w.op, now)
	}
	t.readAheads[id] = nil
}

// resident looks a page up in the buffers with no fill side effects
// (unlike lookupPage, which refills from the in-flight write-back map).
func (t *Tree) resident(id storage.PageID) bool {
	if t.rw != nil {
		if _, ok := t.rw.Get(id); ok {
			return true
		}
		_, ok := t.inflight[id]
		return ok
	}
	_, ok := t.ro.Get(id)
	return ok
}

// bufferCap is the active buffer's capacity in pages.
func (t *Tree) bufferCap() int {
	if t.rw != nil {
		return t.rw.Cap()
	}
	return t.ro.Cap()
}
