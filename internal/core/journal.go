package core

import (
	"fmt"

	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// maxJournalGroup bounds the records one operation can journal: a leaf
// multi-split chain plus the parent path plus a new root plus the meta
// image stays far below this (see splitCurrent), and the gate reserves
// this much headroom before any mutation, so an admitted group always
// fits.
const maxJournalGroup = 24

// journalGate defers a mutating operation while the journal cannot
// accept its redo group: during a checkpoint's append fence, or when the
// region lacks headroom for a worst-case group (which triggers a
// checkpoint). The gate runs before the leaf is touched, so a deferred
// operation re-runs later with no state to undo — and a checkpoint's
// dirty-page snapshot is complete, because no page can become dirty
// behind it. The headroom counts records of the maximum size (a page
// with no hole), an upper bound on real ones, plus one: the checkpoint's
// meta record must fit whatever the last admitted group left.
func (t *Tree) journalGate(o *Op) bool {
	if !t.journalOn {
		return true
	}
	if t.jFence {
		t.scheduleRetry(o, t.cfg.RetryBackoff)
		return false
	}
	if t.wal.Remaining() < (maxJournalGroup+1)*(maxRecordBytes+wal.FrameOverhead) {
		t.maybeCheckpoint()
		t.scheduleRetry(o, t.cfg.RetryBackoff)
		return false
	}
	return true
}

// runJournal drives stJournal: append the op's redo group (once), then
// wait until the durability watermark covers the group's bytes and
// acknowledge. The log is the commit point: the group's pages stay dirty
// in the buffer and reach the device by write-back or checkpoint, under
// walHolds. Always leaves the ready set.
func (t *Tree) runJournal(o *Op) {
	if !o.jAppended {
		t.journalBuild(o)
		o.jAppended = true
		o.jLiveMark = true
		t.jLive++
	}
	if t.journalPark(o) {
		return
	}
	o.jLiveMark = false
	t.jLive--
	t.finishOp(o)
}

// journalBuild appends the op's redo group. A group that changed one leaf
// in place — no split, no root move — is one leaf record naming the key;
// any other is one image record per page beginWriteback encoded. Log
// blocks the group filled go to the writer now; the block it ends in
// waits for journalCommit. Every page of the group is then held back from
// write-back until the group is durable (walHolds).
func (t *Tree) journalBuild(o *Op) {
	cnt := len(o.writes)
	if cnt > maxJournalGroup {
		panic(fmt.Sprintf("core: journal group of %d records exceeds the gate bound", cnt))
	}
	if len(o.modified) == 0 {
		del := o.kind == KindDelete
		leafHeader(t.jHdr[:], o.seq, o.writes[0].id, del, o.key)
		value := o.value
		if del {
			value = nil
		}
		t.journalAppend(t.jHdr[:leafHeaderBytes], value, nil)
		t.stats.JournalLeafRecords++
	} else {
		for i, w := range o.writes {
			t.journalImage(o.seq, i, cnt, w.id, w.data)
		}
	}
	t.wal.FlushFull(t.jwStaged)
	o.jNeed = t.wal.UsedBytes()
	for _, w := range o.writes {
		t.jPageEnd.Put(w.id, o.jNeed)
	}
}

// journalImage appends the image record of one page: the used ends
// straight from the image every other consumer holds.
func (t *Tree) journalImage(seq uint64, idx, cnt int, id storage.PageID, image []byte) {
	prefix, suffix := storage.UsedExtent(image)
	recordHeader(t.jHdr[:], seq, idx, cnt, id, prefix, suffix)
	t.journalAppend(t.jHdr[:recordHeaderBytes], image[:prefix], image[storage.PageSize-suffix:])
}

// journalAppend is the one place a redo record enters the log: the header
// from the tree's scratch, the body as its owner holds it. The gate
// guaranteed capacity, so an append error is a logic bug.
func (t *Tree) journalAppend(hdr, body1, body2 []byte) {
	if _, err := t.wal.Append(hdr, body1, body2); err != nil {
		panic("core: journal append failed after gate: " + err.Error())
	}
	t.stats.JournalAppends++
	t.stats.JournalBytes += uint64(wal.FrameOverhead + len(hdr) + len(body1) + len(body2))
}

// walHolds reports whether page id must not reach the device yet: the
// write-ahead rule. A journaled tree's buffered page is written back, or
// written by a checkpoint's snapshot, only once the log is durable up to
// its newest record, so a page on the device never runs ahead of the log
// that recovery folds onto it. Positions count from the last log reset.
func (t *Tree) walHolds(id storage.PageID) bool {
	end, _ := t.jPageEnd.Get(id)
	return end > t.jDurable
}

// journalPark parks o until the durability watermark covers o.jNeed;
// false means it already does.
func (t *Tree) journalPark(o *Op) bool {
	if o.jNeed <= t.jDurable {
		return false
	}
	if !o.jParked {
		o.jParked = true
		t.jWaiters = append(t.jWaiters, o)
	}
	return true
}

// journalCommit hands the log's partial tail block to the writer. The
// main loop calls it when the ready queue has drained — every operation
// that could still add to the block has run as far as it can — not once
// per group, so how many operations share a tail write follows from how
// many were runnable together, not from how slow the device is. The
// checkpoint calls it for its own record.
func (t *Tree) journalCommit() {
	t.wal.Flush(t.jwStaged)
	t.jwKick()
}

// jwEntry is one log block queued for the tree-level writer, or, once
// submitted, the run of adjacent blocks it went out with; its command
// (with the seam's completion closure and its retry budget, cmd.tries) is
// reused for the entry's pooled life. certify is the log byte watermark
// that becomes durable once this write (and every entry before it)
// completes. inflight/done track its submit→complete lifecycle. run is
// the entry's own buffer a run of blocks is copied into, kept for reuse.
type jwEntry struct {
	cmd      ioCmd
	certify  int
	inflight bool
	done     bool
	run      []byte
}

// walDepth is how many write commands the tree-level WAL writer keeps in
// flight: writes of distinct log blocks overlap, so the log keeps the
// device busy while acknowledgements wait on it.
const walDepth = 8

// jwStaged is the log's block writer: it queues staged block bi. A full
// block certifies its own end; the tail, what has been framed.
func (t *Tree) jwStaged(bi uint64, data []byte) {
	t.jwEnqueue(storage.PageID(t.walStart+bi), data, min(int(bi+1)*storage.PageSize, t.wal.UsedBytes()))
}

// jwEnqueue queues one log block for the tree-level writer. data is the
// log's staging buffer, shared, not copied: the device snapshots a write
// at submit, and what the buffer gains afterwards are later frames behind
// the same bytes. A pending rewrite of the same block (the growing tail)
// is therefore superseded by raising its watermark — unless that write is
// in flight (or landed) or part of a run, in which case the newer one
// queues behind it and lands after, preserving log order.
func (t *Tree) jwEnqueue(id storage.PageID, data []byte, certify int) {
	if n := len(t.jwq); n > 0 {
		tail := t.jwq[n-1]
		if tail.cmd.LBA == uint64(id) && tail.cmd.Blocks == 1 && !tail.inflight && !tail.done {
			tail.cmd.Buf, tail.certify = data, certify
			return
		}
	}
	var e *jwEntry
	if n := len(t.jwFree); n > 0 {
		e, t.jwFree = t.jwFree[n-1], t.jwFree[:n-1]
		e.done, e.cmd.tries = false, 0
	} else {
		e = &jwEntry{}
		e.cmd.retries, e.cmd.done, e.cmd.jw = &e.cmd.tries, (*Tree).jwDone, e
	}
	e.cmd.Command = pageWrite(id, data)
	e.certify = certify
	t.jwq = append(t.jwq, e)
}

// jwActive reports whether the tree-level WAL writer still has work
// queued or in flight — the checkpoint pipeline's drain check.
func (t *Tree) jwActive() bool {
	return t.jwInflight > 0 || len(t.jwq) > 0
}

// jwKick submits queued WAL writes, keeping up to walDepth commands in
// flight. Called after enqueueing, from every write completion, and from
// the main loop (to recover from a full submission queue). An entry goes
// out as one command together with the queued entries right behind it
// whose blocks follow its own (jwExtend). Writes of distinct log blocks
// overlap; an entry whose blocks overlap an earlier not-yet-landed entry
// (an in-flight tail rewrite) stays queued behind it, so per-block
// submission order — and therefore log order on the device — is
// preserved.
func (t *Tree) jwKick() {
	if t.failed {
		return
	}
	for i := 0; i < len(t.jwq) && t.jwInflight < walDepth; i++ {
		e := t.jwq[i]
		if e.inflight || e.done || t.jwBlocked(i, e) {
			continue
		}
		if e.cmd.tries == 0 {
			t.jwExtend(i)
		}
		if !t.jwSubmit(e) {
			return // queue full: the main loop kicks again
		}
	}
}

// jwBlocked reports whether an entry before position i still has to land
// blocks that e writes.
func (t *Tree) jwBlocked(i int, e *jwEntry) bool {
	lo, hi := e.cmd.LBA, e.cmd.LBA+uint64(e.cmd.Blocks)
	for _, p := range t.jwq[:i] {
		if !p.done && p.cmd.LBA < hi && lo < p.cmd.LBA+uint64(p.cmd.Blocks) {
			return true
		}
	}
	return false
}

// jwExtend grows the entry at position i, about to be submitted and never
// sent before, over the queued entries right behind it whose blocks follow
// its own, so a run of adjacent log blocks costs one command. The run
// certifies what its last block does; the absorbed entries go back to the
// pool. The blocks are copied into the entry's own buffer: staging blocks
// are separate buffers. A retry resubmits the run unchanged.
func (t *Tree) jwExtend(i int) {
	e := t.jwq[i]
	end, j := e.cmd.LBA+uint64(e.cmd.Blocks), i+1
	for ; j < len(t.jwq); j++ {
		c := t.jwq[j]
		if c.inflight || c.done || c.cmd.tries > 0 || c.cmd.LBA != end || t.jwBlocked(i, c) {
			break
		}
		end += uint64(c.cmd.Blocks)
	}
	if j == i+1 {
		return
	}
	e.run = append(e.run[:0], e.cmd.Buf...)
	for _, c := range t.jwq[i+1 : j] {
		e.run = append(e.run, c.cmd.Buf...)
		e.certify = c.certify
		c.cmd.Buf = nil
		t.jwFree = append(t.jwFree, c)
	}
	e.cmd.Buf, e.cmd.Blocks = e.run, int(end-e.cmd.LBA)
	rest := i + 1 + copy(t.jwq[i+1:], t.jwq[j:])
	clear(t.jwq[rest:])
	t.jwq = t.jwq[:rest]
}

// jwSubmit issues one WAL write command. Returns false when the
// submission queue is full (the entry stays queued).
func (t *Tree) jwSubmit(e *jwEntry) bool {
	ok := t.submit(&e.cmd)
	if ok {
		e.inflight = true
		t.jwInflight++
		t.stats.JournalWriteCommands++
		t.stats.JournalBlockWrites += uint64(e.cmd.Blocks)
	}
	return ok
}

func (t *Tree) jwDone(c *ioCmd, res ioResult, _ sim.Time) {
	e := c.jw
	t.jwInflight--
	e.inflight = false
	switch res {
	case ioFailed:
		// enterFailed already woke the parked ops so they drain.
		t.jwq = t.jwq[:0]
		return
	case ioOK:
		e.done = true
		t.jwAdvance()
	}
	t.jwKick() // after a retry verdict e is queued again and goes out in order
}

// jwAdvance pops the contiguous completed prefix of the writer's queue,
// advancing the durability watermark over it and waking any ops it
// covers. A completed entry behind a still-pending earlier one stays
// queued: its certify bytes are not durable until everything before them
// has landed, so an out-of-order completion can never certify bytes an
// earlier write could still revert.
func (t *Tree) jwAdvance() {
	n := 0
	advanced := false
	for ; n < len(t.jwq) && t.jwq[n].done; n++ {
		e := t.jwq[n]
		if e.certify > t.jDurable {
			t.jDurable = e.certify
			advanced = true
		}
		e.cmd.Buf = nil
		t.jwFree = append(t.jwFree, e)
	}
	rest := copy(t.jwq, t.jwq[n:])
	clear(t.jwq[rest:])
	t.jwq = t.jwq[:rest]
	if advanced {
		t.promoteJWaiters()
	}
}

// promoteJWaiters wakes ops whose journal bytes became durable (or, in
// the failed state, every parked op so it can drain).
func (t *Tree) promoteJWaiters() {
	if len(t.jWaiters) == 0 {
		return
	}
	rest := t.jWaiters[:0]
	for _, o := range t.jWaiters {
		if t.failed || o.jNeed <= t.jDurable {
			o.jParked = false
			t.pushReady(o, t.clock)
		} else {
			rest = append(rest, o)
		}
	}
	t.jWaiters = rest
}

// maybeCheckpoint spawns an internal checkpoint sync when the journal
// region is running out of headroom (3/4 full). Called from the main
// loop and from the journal gate.
func (t *Tree) maybeCheckpoint() {
	if !t.journalOn || t.failed || t.syncActive || t.checkpointPending {
		return
	}
	if t.wal.Remaining()*4 >= t.wal.CapBytes() {
		return
	}
	t.checkpointPending = true
	o := AcquireOp().InitSync()
	o.internal = true
	o.Done = func(o *Op) { o.Release() }
	t.adoptOp(o, stSyncRun)
}
