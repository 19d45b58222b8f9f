package core

import (
	"fmt"

	"github.com/patree/patree/internal/buffer"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
)

// Sync phases (runSync). Without the journal a sync is the first two:
// the dirty-page snapshot plus the meta page, then one flush (§III-C).
// With it, the sync is a full checkpoint and runs them all.
const (
	spPages        = iota // write the dirty-page snapshot
	spPagesFlush          // barrier: snapshot (+ background write-backs) durable
	spMetaLog             // journal the fenced meta image
	spMetaLogFlush        // barrier: the meta record is durable
	spMeta                // write the fenced meta page in place
	spMetaFlush           // barrier: meta durable
	spReset               // reset the log, zero its first block
	spResetFlush          // barrier: zero block durable
	spDone
)

// runSync drives a sync operation; the op always leaves the ready set.
// With the redo journal on it is a full checkpoint that makes every
// buffered page durable, fences the retired journal generation out of
// the meta page, and resets the log region. The phase order is
// load-bearing: data pages must be durable (flush barrier) before the
// meta fence advances, and the fence must be durable before the log is
// reset — at every crash point, either the records or the pages they
// describe survive.
func (t *Tree) runSync(o *Op) {
	if o.pendingErr != nil {
		// Absorb the remaining completions before failing: failOp may
		// release the op back to the pool, and a late callback must never
		// run against a recycled op.
		if o.syncOutstanding == 0 {
			t.failOp(o, o.pendingErr)
		}
		return
	}
	if !o.syncStarted {
		if t.journalOn {
			if t.syncActive {
				// Another sync owns the pipeline; run again once it finishes.
				t.scheduleRetry(o, t.cfg.RetryBackoff)
				return
			}
			o.syncFenced = true
			t.syncActive = true
			t.jFence = true
			// No record can join the log's tail now, so send it: the ops
			// whose records it holds, which the checkpoint waits out,
			// must not wait for a ready queue that gate-deferred ops can
			// keep from ever draining.
			t.journalCommit()
		}
		o.syncStarted = true
		o.syncQueue = t.buf.DirtyPages()
		if !t.journalOn {
			// No log generation to fence: the meta page rides with the
			// snapshot under the one flush.
			t.syncEpoch++
			o.syncQueue = append(o.syncQueue, buffer.Dirty{ID: 0, Data: t.currentMeta().Encode()})
		}
	}
	for {
		switch o.syncPhase {
		case spPages:
			for len(o.syncQueue) > 0 && !t.walHolds(o.syncQueue[0].ID) {
				if d, ok := t.syncImage(o.syncQueue[0]); ok && !t.submitSyncPage(o, d) {
					return // queue full: stalled list resumes us
				}
				o.syncQueue = o.syncQueue[1:]
			}
			if o.syncOutstanding > 0 {
				return
			}
			if len(o.syncQueue) > 0 || t.journalOn && (len(t.bgQueue) > 0 || t.inflight.Len() > 0) {
				// Pages whose records are still on their way to the log
				// wait for them (the write-ahead rule; the fence admits no
				// new ones), and background write-backs must land under
				// the coming flush barrier too. Neither reschedules this
				// op, so poll.
				t.scheduleRetry(o, t.cfg.RetryBackoff)
				return
			}
			o.syncPhase = spPagesFlush
			o.syncSent = false

		case spPagesFlush, spMetaLogFlush, spMetaFlush, spResetFlush:
			if !o.syncSent {
				next := o.syncPhase + 1
				if !t.journalOn || o.syncPhase == spResetFlush {
					next = spDone
				}
				o.syncSent = t.submitSyncCmd(o, nvme.Command{Op: nvme.OpFlush}, func() {
					o.syncPhase = next
					o.syncSent = false
				})
			}
			return

		case spMetaLog:
			if !o.jAppended {
				if t.jLive > 0 || t.jwActive() {
					// Ops whose records are in the retiring generation must
					// finish first — and the shared WAL writer must drain —
					// before the log is retired; the fence keeps new ones out.
					t.scheduleRetry(o, t.cfg.RetryBackoff)
					return
				}
				// Journal the fenced meta image before writing it in place: a
				// crash that tears page 0 mid-write is then always healable,
				// even when no root move left a meta record in this generation.
				// The image is rebuilt identically in spMeta (nothing that
				// feeds it can change while the fence is up). Same builder,
				// same writer as every group; committed at once, since the
				// fence leaves nothing to share its block.
				image := make([]byte, storage.PageSize)
				t.syncMetaImage(image)
				t.journalImage(o.seq, 0, 1, 0, image)
				o.jNeed = t.wal.UsedBytes()
				o.jAppended = true
				t.journalCommit()
			}
			if t.journalPark(o) {
				return // the watermark reaching the record wakes us
			}
			o.syncPhase = spMetaLogFlush
			o.syncSent = false

		case spMeta:
			if !o.syncSent {
				buf := make([]byte, storage.PageSize)
				t.syncMetaImage(buf)
				o.syncSent = t.submitSyncCmd(o, pageWrite(0, buf), func() {
					t.syncEpoch++
					o.syncPhase = spMetaFlush
					o.syncSent = false
				})
			}
			return

		case spReset:
			if !o.syncResetDone {
				// The physical zero-block write is issued below (and
				// retried if it fails); Reset's own write callback is a
				// no-op so the in-memory state advances exactly once.
				t.wal.Reset(func(uint64, []byte) {})
				t.jDurable = 0
				t.jPageEnd.Clear() // every record is durable: nothing holds
				o.syncResetDone = true
			}
			if !o.syncSent {
				zero := pageWrite(storage.PageID(t.walStart), make([]byte, storage.PageSize))
				o.syncSent = t.submitSyncCmd(o, zero, func() {
					o.syncPhase = spResetFlush
					o.syncSent = false
				})
			}
			return

		case spDone:
			if t.journalOn {
				t.stats.Checkpoints++
			}
			t.finishOp(o) // opTeardown lifts the fence and syncActive
			return

		default:
			panic(fmt.Sprintf("core: bad sync phase %d", o.syncPhase))
		}
	}
}

// syncMetaImage encodes the checkpoint's fenced meta page into buf: the
// present tree state with the sync epoch advanced and the journal
// generation bumped past every record in the region. Both spMetaLog and
// spMeta call it; with the fence up and the journal quiesced its inputs
// cannot change between phases, so the two images are byte-identical.
func (t *Tree) syncMetaImage(buf []byte) {
	meta := t.currentMeta()
	meta.SyncEpoch = t.syncEpoch + 1
	meta.WALGen = t.wal.Generation() + 1
	meta.EncodeTo(buf)
}

// currentMeta builds the meta image for the tree's present in-memory
// state, preserving the journal region description.
func (t *Tree) currentMeta() *storage.Meta {
	return &storage.Meta{
		Root:        t.rootID,
		Height:      uint8(t.height),
		Watermark:   t.alloc.Watermark(),
		NumKeys:     t.numKeys,
		SyncEpoch:   t.syncEpoch,
		WALStart:    t.walStart,
		WALBlocks:   t.walBlocks,
		WALGen:      t.walGenCurrent(),
		ShardID:     t.shardID,
		ShardCount:  t.shardCount,
		DeviceID:    t.deviceID,
		DeviceCount: t.deviceCount,
	}
}

// walGenCurrent returns the journal generation a meta rewrite must carry.
func (t *Tree) walGenCurrent() uint32 {
	if t.wal != nil {
		return t.wal.Generation()
	}
	return t.metaWALGen
}

// syncImage returns what a sync writes for its snapshot entry d: the
// page's newest image, which is its dirty buffer copy, else the one an
// eviction is writing back. An unjournaled sync does not stop mutations,
// and its writes can wait out a full queue, so the snapshot may be older
// than an image already sent to the device, which it would overwrite
// there. False means the device has been sent the newest image already.
func (t *Tree) syncImage(d buffer.Dirty) (buffer.Dirty, bool) {
	if d.ID == 0 {
		return d, true // the meta page
	}
	if cur, ok := t.buf.DirtyImage(d.ID); ok {
		return cur, true
	}
	if data, ok := t.inflight.Get(d.ID); ok {
		return buffer.Dirty{ID: d.ID, Data: data}, true
	}
	return d, false
}

// submitSyncPage issues one write of the sync's page snapshot. A
// transient error re-appends the page to the op's queue. Returns false
// when the submission queue is full (the caller keeps the entry queued
// and the stalled list reschedules).
func (t *Tree) submitSyncPage(o *Op, d buffer.Dirty) bool {
	ok := t.submit(&ioCmd{
		Command: pageWrite(d.ID, d.Data),
		op:      o,
		retries: &o.ioRetries,
		done:    (*Tree).syncPageDone,
		epoch:   d.Epoch,
	})
	if ok {
		o.syncOutstanding++
	}
	return ok
}

func (t *Tree) syncPageDone(c *ioCmd, res ioResult, now sim.Time) {
	o, d := c.op, c.dirty()
	o.syncOutstanding--
	switch res {
	case ioRetry:
		o.syncQueue = append(o.syncQueue, d)
	case ioOK:
		if d.ID != 0 {
			t.buf.MarkClean(d.ID, d.Epoch)
		}
		if t.journalOn {
			t.stats.CheckpointPageWrites++
		}
	}
	t.pushReady(o, now)
}

// submitSyncCmd issues one phase command (flush, meta write, zero-block
// write). On success onOK runs at completion; a transient error clears
// syncSent so the phase resubmits. Returns false when the submission
// queue is full.
func (t *Tree) submitSyncCmd(o *Op, cmd nvme.Command, onOK func()) bool {
	ok := t.submit(&ioCmd{
		Command: cmd,
		op:      o,
		retries: &o.ioRetries,
		done:    (*Tree).syncCmdDone,
		onOK:    onOK,
	})
	if ok {
		o.syncOutstanding++
	}
	return ok
}

func (t *Tree) syncCmdDone(c *ioCmd, res ioResult, now sim.Time) {
	o := c.op
	o.syncOutstanding--
	switch res {
	case ioRetry:
		o.syncSent = false
	case ioOK:
		c.onOK()
	}
	t.pushReady(o, now)
}
