package core

import (
	"fmt"

	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// journalRecordBytes is the payload size of one redo record:
// opSeq(8) idx(1) cnt(1) pageID(8) page image(512).
const journalRecordBytes = 18 + storage.PageSize

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
// behind it.
func (t *Tree) journalGate(o *Op) bool {
	if !t.journalOn {
		return true
	}
	if t.jFence {
		t.scheduleRetry(o, t.cfg.RetryBackoff)
		return false
	}
	if t.wal.Remaining() < maxJournalGroup*(journalRecordBytes+wal.FrameOverhead) {
		t.maybeCheckpoint()
		t.scheduleRetry(o, t.cfg.RetryBackoff)
		return false
	}
	return true
}

// runJournal drives stJournal: append the op's redo group (once), hand
// the flushed WAL blocks to the tree-level writer, then wait until the
// durability watermark covers the group's bytes before acknowledging
// (weak) or starting the in-place writes (strong). Returns true when
// the op left the ready set.
func (t *Tree) runJournal(o *Op) bool {
	if !o.jAppended {
		t.journalBuild(o)
		o.jAppended = true
		o.jLiveMark = true
		t.jLive++
		t.jwKick()
	}
	if o.jNeed > t.jDurable {
		// The op's records ride in the shared writer's queue; park until
		// the durability watermark covers them.
		if !o.jParked {
			o.jParked = true
			t.jWaiters = append(t.jWaiters, o)
		}
		return true
	}
	o.jLiveMark = false
	t.jLive--
	if t.cfg.Persistence == WeakPersistence {
		t.finishOp(o)
		return true
	}
	o.postJournal = true
	t.postJournalLive++
	o.state = stWriteNext
	return false
}

// journalBuild appends the op's redo group — one record per modified
// page, plus the meta image when the root moves — and collects the WAL
// block writes the flush produced. The gate guaranteed capacity, so
// append errors are logic bugs.
func (t *Tree) journalBuild(o *Op) {
	cnt := len(o.modified)
	if o.commit != nil {
		cnt++
	}
	if cnt > maxJournalGroup {
		panic(fmt.Sprintf("core: journal group of %d records exceeds the gate bound", cnt))
	}
	rec := make([]byte, journalRecordBytes)
	idx := 0
	emit := func(id storage.PageID, image []byte) {
		putJU64(rec[0:8], o.seq)
		rec[8] = byte(idx)
		rec[9] = byte(cnt)
		putJU64(rec[10:18], uint64(id))
		copy(rec[18:], image)
		if _, err := t.wal.Append(rec); err != nil {
			panic("core: journal append failed after gate: " + err.Error())
		}
		idx++
	}
	for _, n := range o.modified {
		emit(n.ID, n.Encode())
	}
	if o.commit != nil {
		emit(0, t.pendingMeta(o).Encode())
	}
	t.wal.Flush(func(bi uint64, data []byte) {
		t.jwEnqueue(storage.PageID(t.walStart+bi), data)
	})
	// After Flush, UsedBytes covers everything flushed so far; the
	// watermark is certified when the flush's final block completes.
	target := t.wal.UsedBytes()
	if n := len(t.jwq); n > 0 && target > t.jwq[n-1].certify {
		t.jwq[n-1].certify = target
	}
	o.jNeed = target
	t.stats.JournalAppends += uint64(cnt)
}

// jwEntry is one WAL block image queued for the tree-level writer.
// certify, when non-zero, is the log byte watermark that becomes durable
// once this write (and every entry before it) completes — set on a
// flush's final block. inflight/done track the entry's position in its
// submit→complete lifecycle; retries is its transient-retry budget.
type jwEntry struct {
	id       storage.PageID
	data     []byte
	certify  int
	inflight bool
	done     bool
	retries  int
}

// WAL writer depth: how many block writes the tree-level writer keeps in
// flight. The classic loop keeps one; Config.Pipelined overlaps writes of
// distinct log blocks.
const (
	walDepthClassic   = 1
	walDepthPipelined = 8
)

// jwEnqueue queues one WAL block image for the tree-level writer. A
// pending rewrite of the same block (the growing tail) is superseded in
// place — unless it is a write currently in flight (or already landed),
// in which case the newer image queues behind it and lands after,
// preserving log order.
func (t *Tree) jwEnqueue(id storage.PageID, data []byte) {
	// Flush reuses its block buffer between calls: copy.
	cp := make([]byte, len(data))
	copy(cp, data)
	if n := len(t.jwq); n > 0 {
		tail := t.jwq[n-1]
		if tail.id == id && !tail.inflight && !tail.done {
			tail.data = cp
			return
		}
	}
	t.jwq = append(t.jwq, &jwEntry{id: id, data: cp})
}

// jwActive reports whether the tree-level WAL writer still has work
// queued or in flight — the checkpoint pipeline's drain check.
func (t *Tree) jwActive() bool {
	return t.jwInflight > 0 || len(t.jwq) > 0
}

// jwKick submits queued WAL block writes, keeping up to jwDepth in
// flight. Called after enqueueing, from every write completion, and from
// the main loop (to recover from a full submission queue). Writes of
// distinct log blocks overlap; an entry whose block has an earlier
// not-yet-landed entry (an in-flight tail rewrite) stays queued behind it
// so same-block submission order — and therefore log order on the device
// — is preserved. At depth 1 this is a strictly serial writer: each
// completion chains the next submit.
func (t *Tree) jwKick() {
	if t.failed {
		return
	}
	for i := 0; i < len(t.jwq) && t.jwInflight < t.jwDepth; i++ {
		e := t.jwq[i]
		if e.inflight || e.done {
			continue
		}
		blocked := false
		for j := 0; j < i; j++ {
			if t.jwq[j].id == e.id && !t.jwq[j].done {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		if !t.jwSubmit(e) {
			return // queue full: the main loop kicks again
		}
	}
}

// jwSubmit issues one WAL block write. Returns false when the submission
// queue is full (the entry stays queued).
func (t *Tree) jwSubmit(e *jwEntry) bool {
	ok := t.submit(&ioCmd{
		Command: pageWrite(e.id, e.data),
		retries: &e.retries,
		done:    (*Tree).jwDone,
		jw:      e,
	})
	if ok {
		e.inflight = true
		t.jwInflight++
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
	advanced := false
	for len(t.jwq) > 0 && t.jwq[0].done {
		if t.jwq[0].certify > t.jDurable {
			t.jDurable = t.jwq[0].certify
			advanced = true
		}
		t.jwq[0] = nil
		t.jwq = t.jwq[1:]
	}
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
	now := t.now()
	rest := t.jWaiters[:0]
	for _, o := range t.jWaiters {
		if t.failed || o.jNeed <= t.jDurable {
			o.jParked = false
			t.pushReady(o, now)
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

// putJU64 is little-endian encoding for journal record fields.
func putJU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getJU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
