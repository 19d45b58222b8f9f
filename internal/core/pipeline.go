package core

// Speculative child prefetch (Config.Pipelined): the drain-time
// half of the pipelined polled loop of DESIGN.md §17.
//
// The polled worker normally discovers each operation's next page one
// level at a time: descend, miss, submit a read, park, resume. A deep
// drain batch therefore trickles its leaf reads onto the device one
// main-loop pass apart, and the NVMe queue idles while the worker walks
// inner pages it already has in memory. This file inverts that: at drain
// time the worker walks each queued point operation's *predicted*
// root-to-leaf path through buffer-resident pages — pure CPU over sealed
// images, no latches, no device traffic — and issues the first missing
// page's read immediately, so the read is in flight (or done) by the
// time the operation's turn comes. When a speculative read lands and
// makes an inner page resident, its search steers the next level and the
// prediction chains one page deeper — the "inner-page search completed →
// issue the likely child reads" trigger.
//
// Speculation is advisory and strictly bounded:
//
//   - a budget (specBudget) caps speculative reads in flight, the
//     pass is additionally capped by submission-queue headroom (half the
//     ring is reserved for demand traffic), and it is skipped entirely
//     while the probe policy predicts completions are ready to reap —
//     reaping first both frees budget and may make predicted pages
//     resident for free. The pass is CPU-bounded too: it probes at most
//     one predicted path per budget unit, so a warm-buffer drain of
//     hundreds of operations never walks them all just to find every
//     page resident;
//   - a completed speculative image is installed only after validation:
//     an intervening write of the same page (any write-submission site
//     calls specInvalidate, which marks the in-flight read stale and
//     wakes its waiters immediately so they re-read the fresh image from
//     the buffers instead of waiting out a doomed read), residency
//     established via another path, a device error, or a checksum
//     failure drops the image (SpecCancelled) — so a speculative read
//     can never publish a stale page over a newer write, no matter how
//     device completions reorder;
//   - speculative reads carry no retry budget. An operation that parked
//     on one (SpecHits) is simply woken on cancellation and falls back
//     to its own demand read with its own full retry budget, so the
//     fault-handling paths are unchanged.
//
// Everything here runs on the working thread; the single-writer
// invariant is untouched. With the option off (the default) none of
// these paths execute and simulated schedules are byte-identical.

import (
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
)

// specWaiter is an operation parked on an in-flight speculative read,
// with the instant it parked (its I/O wait accrues from there).
type specWaiter struct {
	op    *Op
	since sim.Time
}

// specRead tracks one speculative page read between submission and
// completion. keys are the drained keys predicted to descend through
// this page — the chain-prediction seeds once it lands; stale flips
// when a write of the page is submitted while the read is in flight
// (specInvalidate), which vetoes the install.
type specRead struct {
	id      storage.PageID
	stale   bool
	keys    []uint64
	waiters []specWaiter
}

// speculate runs one prefetch pass over the point keys drained in this
// batch (t.specKeys). Called from drainInbox when speculation is on.
// Each probe costs virtual CPU even when it issues nothing, so the pass
// probes at most one distinct key per budget unit — the prediction
// overhead stays a fixed, small fraction of the pass instead of growing
// with the drain batch.
func (t *Tree) speculate(now sim.Time) {
	keys := t.specKeys
	t.specKeys = keys[:0]
	if t.failed || len(keys) == 0 {
		return
	}
	budget := t.specBudgetNow(now)
	probes := budget
	if t.specSeen == nil {
		t.specSeen = make(map[uint64]struct{})
	}
	clear(t.specSeen)
	for _, key := range keys {
		if budget <= 0 || probes <= 0 {
			return
		}
		// Skewed workloads drain the same hot key many times per batch;
		// one probe covers them all (they coalesce on the same read).
		if _, dup := t.specSeen[key]; dup {
			continue
		}
		t.specSeen[key] = struct{}{}
		probes--
		if t.specPredict(key) {
			budget--
		}
	}
}

// specBudgetNow computes how many speculative reads this pass may issue:
// the configured cap minus those already in flight, further capped by
// submission-queue headroom (speculation never takes the half of the
// ring reserved for demand traffic), and zero while the probe policy
// predicts completions are ready to reap. The policy consult pays the
// same per-evaluation overhead the main loop's probe gate pays.
func (t *Tree) specBudgetNow(now sim.Time) int {
	b := specBudget - len(t.specInflight)
	if head := t.cfg.QueueDepth/2 - t.qp.Outstanding(); head < b {
		b = head
	}
	if b <= 0 {
		return 0
	}
	if t.ioBlocked > 0 {
		t.charge(metrics.CatSched, t.policy.Overhead())
		if t.policy.ShouldProbe(now, t.ioBlocked) {
			return 0
		}
	}
	return b
}

// specPredict walks key's predicted descent path through buffer-resident
// pages and issues a read for the first missing one. Returns true when a
// new read was issued. The walk reads sealed page images without
// latches: it is a prediction, not a traversal — the operation itself
// re-descends under the full latch protocol when its turn comes, so a
// prediction gone stale costs at most one wasted read. Each level
// charges a quarter of a full node visit: the probe is a bare binary
// search over the sealed slot array, with none of the latch, validation
// or materialization work the real descent pays (and re-pays).
func (t *Tree) specPredict(key uint64) bool {
	cur := t.rootID
	for depth := 0; depth < t.height; depth++ {
		data, ok := t.specResident(cur)
		if !ok {
			return t.specIssue(cur, key)
		}
		t.charge(metrics.CatRealWork, t.cfg.Costs.NodeVisit/4)
		step, err := storage.SearchPage(data, key)
		if err != nil || step.Leaf {
			// Resident down to the leaf (or an undecodable image the real
			// descent will deal with): nothing to prefetch.
			return false
		}
		cur = step.Child
	}
	return false
}

// specResident looks a page up in the buffers with no fill side effects
// (unlike lookupPage, which refills from the in-flight write-back map).
func (t *Tree) specResident(id storage.PageID) ([]byte, bool) {
	if t.rw != nil {
		if data, ok := t.rw.Get(id); ok {
			return data, true
		}
		data, ok := t.inflight[id]
		return data, ok
	}
	return t.ro.Get(id)
}

// specIssue submits a speculative read of id, predicted for the given
// point keys (none for a scan-ahead leaf, whose install has nothing to
// chain). Returns true when a new command was issued (budget consumed).
// A read already in flight for the page just adopts the keys for chain
// prediction; a full submission queue drops the guess — demand traffic
// has priority, and there is no stalled-list entry to lose.
func (t *Tree) specIssue(id storage.PageID, keys ...uint64) bool {
	if sr, ok := t.specInflight[id]; ok {
		if !sr.stale {
			sr.keys = append(sr.keys, keys...)
		}
		return false
	}
	if t.specInflight == nil {
		t.specInflight = make(map[storage.PageID]*specRead)
	}
	ok := t.submit(&ioCmd{Command: pageRead(id), done: (*Tree).specComplete})
	if ok {
		t.stats.SpecIssued++
		t.specInflight[id] = &specRead{id: id, keys: keys}
	}
	return ok
}

// specComplete validates and installs one landed speculative image, wakes
// the operations parked on it, and chains the prediction one page deeper
// for the keys that rode on it.
func (t *Tree) specComplete(c *ioCmd, res ioResult, now sim.Time) {
	sr := t.specInflight[storage.PageID(c.LBA)]
	delete(t.specInflight, sr.id)
	_, resident := t.specResident(sr.id)
	if res != ioOK || resident || sr.stale {
		// Mispredict: drop the image. Waiters wake and issue their own
		// demand reads (fresh image, full retry budget).
		t.stats.SpecCancelled++
		t.promoteSpecWaiters(sr, now)
		return
	}
	t.fillOnRead(sr.id, c.Buf)
	if len(sr.waiters) == 0 {
		t.stats.SpecWasted++
	}
	t.promoteSpecWaiters(sr, now)
	if t.failed {
		return
	}
	budget := t.specBudgetNow(now)
	for _, key := range sr.keys {
		if budget <= 0 {
			return
		}
		if t.specPredict(key) {
			budget--
		}
	}
}

// specScanAhead prefetches right siblings of the leaf a range scan is
// about to enter. A scan crossing a leaf boundary otherwise discovers
// each sibling only from the previous leaf's Next link — one read per
// 75µs-class device round trip, strictly serial. The parent inner node
// in hand lists those same siblings in order, so the expected leaves
// are issued together and the scan's chain of serial reads collapses
// into one parallel batch. Bounded like all speculation: at most
// specScanAheadDepth leaves, never beyond the scan's end key, within
// the in-flight budget and the demand-reserved queue headroom.
func (t *Tree) specScanAhead(o *Op, node *storage.Node, idx int) {
	if t.failed || node.Level != 1 {
		return
	}
	issued := 0
	for j := idx + 1; j < len(node.Children) && issued < specScanAheadDepth; j++ {
		if node.Keys[j-1] > o.endKey {
			return
		}
		if len(t.specInflight) >= specBudget ||
			t.qp.Outstanding() >= t.cfg.QueueDepth/2 {
			return
		}
		id := node.Children[j]
		if _, ok := t.specResident(id); ok {
			continue
		}
		if t.specIssue(id) {
			issued++
		}
	}
}

// specBudget caps the speculative reads in flight at once. The effective
// budget per pass is additionally capped by device-queue headroom and
// deferred while the probe policy predicts imminent completions, so
// speculation fills idle submission slots instead of competing with
// demand I/O.
const specBudget = 16

// specScanAheadDepth bounds how many sibling leaves one scan prefetches:
// at the default 64-pair scan length and ~20-byte entries a scan spans
// about four leaves. A longer scan falls back to serial Next-link reads
// past the prefetched window (and past this parent's last child).
const specScanAheadDepth = 4

// specInvalidate is called by every write-submission site (in-buffer
// updates, background write-backs, strong-mode op writes, checkpoint
// page writes) with the page being written. If a speculative read of
// that page is in flight its device image is now stale: mark it so the
// completion drops it, and wake its waiters immediately — the write
// just made the fresh image resident (buffer or in-flight table), so
// they re-read it at once instead of waiting out a doomed read. With no
// read in flight for the page (the common case, and always when
// speculation is off) this is a nil-map lookup and nothing more.
func (t *Tree) specInvalidate(id storage.PageID) {
	sr, ok := t.specInflight[id]
	if !ok || sr.stale {
		return
	}
	sr.stale = true
	sr.keys = nil
	t.promoteSpecWaiters(sr, t.now())
}

// promoteSpecWaiters wakes every operation parked on sr, crediting the
// park time as I/O wait (the read they coalesced onto was doing their
// I/O). Also called from enterFailed so no waiter is ever stranded on a
// read whose completion the failed state will ignore.
func (t *Tree) promoteSpecWaiters(sr *specRead, now sim.Time) {
	for _, w := range sr.waiters {
		w.op.ioWait += now.Sub(w.since)
		if t.tr != nil {
			t.tr.Emit(tcIORead, uint16(w.op.kind), w.op.seq, uint64(sr.id), int64(w.since), int64(now.Sub(w.since)))
		}
		t.pushReady(w.op, now)
	}
	sr.waiters = sr.waiters[:0]
}
