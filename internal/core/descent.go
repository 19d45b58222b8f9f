package core

import (
	"fmt"

	"github.com/patree/patree/internal/latch"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
)

// innerSplitMargin is how far below the hard inner capacity a node must be
// before we descend through it on the insert path: a single leaf overflow
// can cascade up to ceil(log2(leaf entries)) separators into one parent
// (multi-split of small entries around one large value), so parents keep
// at least this much slack. See DESIGN.md.
const innerSplitMargin = 6

// ErrValueTooLarge mirrors storage.ErrValueTooLarge at the operation level.
var ErrValueTooLarge = storage.ErrValueTooLarge

// process runs o's transitions until it leaves the ready set (§III-A:
// process(c) is the maximal sequence of transitions until the operation
// completes or enters a waiting state).
func (t *Tree) process(o *Op) {
	for {
		if t.failed && o.state != stDone {
			// Terminal device failure: fail the operation as soon as it has
			// no commands in flight. Callbacks for outstanding commands keep
			// rescheduling it here until it has drained, so nothing is ever
			// freed back to the pool with a completion still pointing at it.
			if o.syncOutstanding == 0 {
				t.failOp(o, ErrDeviceFailed)
			}
			return
		}
		if o.pendingErr != nil && o.state != stSyncRun {
			t.failOp(o, o.pendingErr)
			return
		}
		switch o.state {
		case stEntry:
			if o.kind == KindNop {
				// Pipeline no-op: complete without touching the index.
				t.finishOp(o)
				return
			}
			o.cur = t.rootID
			o.depth = 0
			o.prevNode = nil
			o.state = stChildGranted
			if !t.acquireLatch(o, o.cur, t.latchModeFor(o, t.height-1)) {
				return // latch-blocked; grant moves us on
			}

		case stChildGranted:
			if o.depth == 0 && o.cur != t.rootID {
				// The root split while we were queued: restart from the
				// real root (entry-latch recheck; see package docs).
				t.releaseLatch(o, o.cur)
				o.state = stEntry
				continue
			}
			// Searches, scans, deletes and optimistic updates release the
			// previous node as soon as the child latch is granted;
			// pessimistic updates keep it until the child is known not to
			// split.
			if !t.pessimisticCoupling(o) {
				t.releaseAllExcept(o, o.cur)
				o.prevNode = nil
			}
			o.state = stReadNode

		case stReadNode:
			// The image this op's own demand read brought in is used as it
			// is: the lookup that missed was this visit's one reference to
			// the page, and a second lookup would promote it in the buffer.
			data, ok := o.ioData, o.ioData != nil && o.ioFor == o.cur
			o.ioData = nil
			if !ok {
				data, ok = t.lookupPage(o.cur)
			}
			if !ok {
				if ws, ok := t.readAheads[o.cur]; ok {
					// A scan's read-ahead of this page is in flight: park
					// on it instead of issuing a duplicate (pipeline.go
					// wakes us when it is reaped).
					t.readAheads[o.cur] = append(ws, raWaiter{op: o, since: t.now()})
					t.stats.ReadAheadHits++
					return // I/O-blocked on the read-ahead
				}
				t.submitRead(o)
				return // I/O-blocked, or stalled on a full queue
			}
			if o.kind == KindSearch {
				// Point lookups never mutate, so they read the sealed page
				// image directly instead of materializing a Node — the
				// binary search runs over the encoded slot array and only
				// the matched value is copied out. Same page validation,
				// same latch protocol, same CPU charge; zero decode
				// allocations on a buffer hit.
				if t.searchStep(o, data) {
					return
				}
				continue
			}
			node, err := storage.DecodeNode(o.cur, data)
			if err != nil {
				t.failOp(o, err)
				return
			}
			t.charge(metrics.CatRealWork, t.cfg.Costs.NodeVisit)
			o.curNode = node
			o.state = stProcess

		case stProcess:
			if done := t.processNode(o); done {
				return
			}

		case stWriteNext:
			if o.wIdx >= len(o.writes) {
				t.finishOp(o)
				return
			}
			t.submitOpWrite(o)
			return // I/O-blocked until this write completes (or stalled)

		case stJournal:
			t.runJournal(o)
			return

		case stSyncRun:
			t.runSync(o)
			return

		case stDone:
			return

		default:
			panic(fmt.Sprintf("core: bad op state %d", o.state))
		}
	}
}

// searchStep advances a point search one level using the raw page image
// (see the KindSearch branch in process). Returns true when the op left
// the ready set (completed, failed, or latch-blocked on the child).
func (t *Tree) searchStep(o *Op, data []byte) bool {
	step, err := storage.SearchPage(data, o.key)
	if err != nil {
		t.failOp(o, err)
		return true
	}
	t.charge(metrics.CatRealWork, t.cfg.Costs.NodeVisit)
	if step.Leaf {
		o.Res.Found = step.Found
		o.Res.Value = step.Value
		t.finishOp(o)
		return true
	}
	o.cur = step.Child
	o.depth++
	o.state = stChildGranted
	if !t.acquireLatch(o, step.Child, latch.Shared) {
		return true // latch-blocked
	}
	return false
}

// processNode executes the index logic on o.curNode. Returns true when
// the op left the ready set (done or waiting).
func (t *Tree) processNode(o *Op) bool {
	node := o.curNode
	isUpd := o.kind == KindInsert || o.kind == KindUpdate

	if isUpd && node.IsLeaf() && !o.pessimistic && t.needsSplit(o, node) {
		// Optimistic descent found a leaf that must split: restart with
		// exclusive coupling (rare; see Op.pessimistic).
		if o.kind == KindUpdate {
			if _, found := node.SearchLeaf(o.key); !found {
				o.Res.Found = false
				t.finishOp(o)
				return true
			}
		}
		o.pessimistic = true
		t.releaseAll(o)
		o.state = stEntry
		return false
	}

	if isUpd && o.pessimistic && t.needsSplit(o, node) {
		if o.kind == KindUpdate {
			// Confirm the key exists before splitting on its behalf.
			if node.IsLeaf() {
				if _, found := node.SearchLeaf(o.key); !found {
					o.Res.Found = false
					t.finishOp(o)
					return true
				}
			}
		}
		t.splitCurrent(o)
		// Re-process the (possibly new) current node.
		return false
	}

	if node.IsLeaf() {
		return t.leafAction(o)
	}

	// Inner node: the child to follow.
	if isUpd && o.pessimistic {
		// This node is split-safe: ancestors not pinned by modifications
		// can be released (latch coupling for updates, §III-B).
		t.releaseSafeAncestors(o)
	}
	idx := node.ChildIndex(o.key)
	child := node.Children[idx]
	if t.cfg.Pipelined && o.kind == KindRange {
		t.readAhead(o, node, idx)
	}
	o.prevNode = node
	o.cur = child
	o.depth++
	o.state = stChildGranted
	if !t.acquireLatch(o, child, t.latchModeFor(o, int(node.Level)-1)) {
		return true // latch-blocked
	}
	return false
}

// latchModeFor returns the latch mode for a node at the given level on
// o's traversal: searches take shared latches everywhere; optimistic
// updates take shared latches on inner nodes and exclusive only on the
// leaf; pessimistic updates take exclusive everywhere.
func (t *Tree) latchModeFor(o *Op, level int) latch.Mode {
	if o.kind == KindSearch || o.kind == KindRange {
		return latch.Shared
	}
	if o.pessimistic || level <= 0 {
		return latch.Exclusive
	}
	return latch.Shared
}

// pessimisticCoupling reports whether o keeps ancestors latched across
// child acquisition.
func (t *Tree) pessimisticCoupling(o *Op) bool {
	return (o.kind == KindInsert || o.kind == KindUpdate) && o.pessimistic
}

// leafAction applies o to the leaf in o.curNode (which fits the change;
// splits were handled before entering here).
func (t *Tree) leafAction(o *Op) bool {
	node := o.curNode
	costs := &t.cfg.Costs
	switch o.kind {
	case KindSearch:
		if i, found := node.SearchLeaf(o.key); found {
			o.Res.Found = true
			o.Res.Value = node.Vals[i]
		}
		t.finishOp(o)
		return true

	case KindRange:
		i, _ := node.SearchLeaf(o.key)
		for ; i < len(node.Keys); i++ {
			if node.Keys[i] > o.endKey {
				t.finishOp(o)
				return true
			}
			o.Res.Pairs = append(o.Res.Pairs, KV{Key: node.Keys[i], Value: node.Vals[i]})
			if o.limit > 0 && len(o.Res.Pairs) >= o.limit {
				t.finishOp(o)
				return true
			}
		}
		if node.Next == storage.NilPage {
			t.finishOp(o)
			return true
		}
		// Continue into the right sibling with latch coupling; every key
		// there exceeds everything in this leaf, so scanning resumes from
		// the sibling's first slot.
		o.key = 0
		o.prevNode = node
		o.cur = node.Next
		o.depth++
		o.state = stChildGranted
		if !t.acquireLatch(o, o.cur, o.mode) {
			return true
		}
		return false

	case KindInsert, KindUpdate:
		if len(o.value) > storage.MaxValueSize {
			t.failOp(o, ErrValueTooLarge)
			return true
		}
		if !t.journalGate(o) {
			return true // deferred before mutating; re-runs via retryq
		}
		i, found := node.SearchLeaf(o.key)
		if o.kind == KindUpdate && !found {
			o.Res.Found = false
			t.finishOp(o)
			return true
		}
		_ = i
		replaced := node.InsertLeaf(o.key, o.value)
		o.Res.Found = replaced
		if !replaced {
			t.numKeys++
		}
		t.charge(metrics.CatRealWork, costs.LeafMutate)
		t.markModified(o, node)
		return t.beginWriteback(o)

	case KindDelete:
		i, found := node.SearchLeaf(o.key)
		if !found {
			t.finishOp(o)
			return true
		}
		if !t.journalGate(o) {
			return true // deferred before mutating; re-runs via retryq
		}
		node.DeleteLeafAt(i)
		o.Res.Found = true
		t.numKeys--
		t.charge(metrics.CatRealWork, costs.LeafMutate)
		t.markModified(o, node)
		return t.beginWriteback(o)

	default:
		panic("core: unexpected kind in leafAction: " + o.kind.String())
	}
}

// needsSplit decides whether the current node must be split before the
// insert/update proceeds (top-down preemptive splitting; see DESIGN.md).
func (t *Tree) needsSplit(o *Op, node *storage.Node) bool {
	if !node.IsLeaf() {
		return node.NumKeys() >= storage.InnerMaxKeys-innerSplitMargin
	}
	if len(o.value) > storage.MaxValueSize {
		return false // leafAction will fail the op cleanly
	}
	if i, found := node.SearchLeaf(o.key); found {
		return !node.LeafFitsReplace(i, len(o.value))
	}
	return !node.LeafFits(len(o.value))
}

// splitCurrent splits o.curNode (held X), inserting separators into the
// held parent (creating a new root when the current node is the root).
// For leaves it loops byte-balanced splits until the incoming value fits
// the half covering the key. All modified nodes stay latched and are
// queued for write-back.
func (t *Tree) splitCurrent(o *Op) {
	node := o.curNode
	parent := o.prevNode
	costs := &t.cfg.Costs

	if parent == nil {
		// Root split: hoist a new root above the current node.
		newRootID := t.alloc.Alloc()
		newRoot := storage.NewInner(newRootID, node.Level+1)
		newRoot.Children = []storage.PageID{node.ID}
		if !t.acquireLatch(o, newRootID, latch.Exclusive) {
			panic("core: fresh root latch contended")
		}
		t.markModified(o, newRoot)
		hoisted, newHeight := newRootID, t.height+1
		prevCommit := o.commit
		o.commit = func() {
			if prevCommit != nil {
				prevCommit()
			}
			t.rootID = hoisted
			t.height = newHeight
		}
		parent = newRoot
		o.prevNode = newRoot
	}

	if !node.IsLeaf() {
		rightID := t.alloc.Alloc()
		sep, right := node.SplitInner(rightID)
		if !t.acquireLatch(o, rightID, latch.Exclusive) {
			panic("core: fresh split node latch contended")
		}
		if t.pub != nil {
			o.pubSplits = append(o.pubSplits, pubSplit{left: node.ID, right: rightID, sep: sep})
		}
		parent.InsertInner(sep, rightID)
		t.charge(metrics.CatRealWork, costs.Split)
		t.stats.Splits++
		t.markModified(o, node)
		t.markModified(o, right)
		t.markModified(o, parent)
		if o.key >= sep {
			o.curNode = right
			o.cur = rightID
		}
		return
	}

	// Leaf: split until the half covering the key fits the value.
	target := node
	t.markModified(o, parent)
	for {
		var fits bool
		if i, found := target.SearchLeaf(o.key); found {
			fits = target.LeafFitsReplace(i, len(o.value))
		} else {
			fits = target.LeafFits(len(o.value))
		}
		if fits {
			break
		}
		if target.NumKeys() < 2 {
			// By the MaxValueSize bound a single-entry leaf always fits
			// one more maximal value; reaching here is a logic bug.
			panic("core: unsplittable leaf cannot fit value")
		}
		rightID := t.alloc.Alloc()
		sep, right := target.SplitLeaf(rightID)
		if !t.acquireLatch(o, rightID, latch.Exclusive) {
			panic("core: fresh split leaf latch contended")
		}
		if t.pub != nil {
			o.pubSplits = append(o.pubSplits, pubSplit{left: target.ID, right: rightID, sep: sep})
		}
		parent.InsertInner(sep, rightID)
		t.charge(metrics.CatRealWork, costs.Split)
		t.stats.Splits++
		t.markModified(o, target)
		t.markModified(o, right)
		if o.key >= sep {
			target = right
		}
	}
	if parent.NumKeys() > storage.InnerMaxKeys {
		panic("core: parent overflow after leaf multi-split")
	}
	o.curNode = target
	o.cur = target.ID
}

// markModified records node for write-back (ordered children-first at
// queue-build time) and pins the op as a write-latch holder for the
// prioritized scheduler.
func (t *Tree) markModified(o *Op, node *storage.Node) {
	for _, m := range o.modified {
		if m == node {
			return
		}
	}
	o.modified = append(o.modified, node)
	o.holdsWrite = true
}

// releaseSafeAncestors drops latches on every held node above the current
// one that was not modified (modified pages stay latched until their
// writes complete so no reader can observe in-flight data).
func (t *Tree) releaseSafeAncestors(o *Op) {
	if len(o.held) <= 1 {
		return
	}
	kept := o.held[:0]
	for _, h := range o.held {
		if h.id == o.cur || o.isModified(h.id) {
			kept = append(kept, h)
			continue
		}
		t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
		t.latches.Release(h.id, h.mode)
	}
	o.held = kept
}

func (o *Op) isModified(id storage.PageID) bool {
	for _, m := range o.modified {
		if m.ID == id {
			return true
		}
	}
	return false
}

// beginWriteback finishes an update operation. Each modified node is
// encoded once, into o.writes, and every consumer takes that image: the
// in-place write (strong), the read-write buffer (weak or journaled), the
// published table at finishOp and the redo record. An unjournaled strong
// tree orders the pages leaves before parents, meta last, and moves the
// op to the write pipeline; a buffering tree stores them and completes,
// scheduling evicted victims in the background (§III-C) — with the
// journal on, once stJournal has made the redo group durable. Returns
// true iff the op left the ready set (the processNode convention).
func (t *Tree) beginWriteback(o *Op) bool {
	buffered := t.rw != nil
	if !buffered {
		// Children-first, so a parent never points to an unwritten child
		// on the device.
		mods := o.modified
		for i := 0; i < len(mods); i++ {
			for j := i + 1; j < len(mods); j++ {
				if mods[j].Level < mods[i].Level {
					mods[i], mods[j] = mods[j], mods[i]
				}
			}
		}
	}
	for _, n := range o.modified {
		img := n.Encode()
		o.writes = append(o.writes, writeReq{id: n.ID, data: img})
		if buffered {
			t.bufferWrite(n.ID, img)
		}
	}
	if o.commit != nil && (!buffered || t.journalOn) {
		// Root changed: the new meta image is written last (strong) or
		// journaled with the group (a buffering tree writes page 0 only at
		// a sync, but its redo group must carry the move).
		o.writes = append(o.writes, writeReq{id: 0, data: t.pendingMeta(o).Encode()})
	}
	switch {
	case t.journalOn:
		// Journal-first: the redo group is durable before the op is
		// acknowledged; the buffered pages reach the device much later.
		o.state = stJournal
		return false
	case buffered:
		t.finishOp(o)
		return true
	}
	o.state = stWriteNext
	return false // continue in process(): stWriteNext issues the first write
}

// pendingMeta builds the meta image as it must look after o commits.
func (t *Tree) pendingMeta(o *Op) *storage.Meta {
	// The commit closure updates rootID/height; peek at the new values by
	// inspecting the newest modified root-level node.
	meta := t.currentMeta()
	for _, n := range o.modified {
		if n.Level+1 > meta.Height {
			meta.Height = n.Level + 1
			meta.Root = n.ID
		}
	}
	return meta
}

// ─── Page access ────────────────────────────────────────────────────────

// lookupPage consults the buffers (and, with the read-write buffer, the
// in-flight write-back table) for the page image of id.
func (t *Tree) lookupPage(id storage.PageID) ([]byte, bool) {
	if t.rw != nil {
		if data, ok := t.rw.Get(id); ok {
			return data, true
		}
		if data, ok := t.inflight[id]; ok {
			// Refill the buffer: content is identical to what is being
			// persisted right now.
			if victim, ev := t.rw.FillOnRead(id, data); ev {
				t.queueBG(victim)
			}
			if t.pub != nil {
				t.pub.publishFill(id, data)
			}
			return data, true
		}
		return nil, false
	}
	if data, ok := t.ro.Get(id); ok {
		return data, true
	}
	return nil, false
}

// submitRead issues the demand read for o.cur; the op resumes in
// stReadNode with the image in hand.
func (t *Tree) submitRead(o *Op) {
	t.submit(&ioCmd{
		Command: pageRead(o.cur, 1),
		op:      o,
		retries: &o.ioRetries,
		done:    (*Tree).readDone,
	})
}

func (t *Tree) readDone(c *ioCmd, res ioResult, now sim.Time) {
	o := c.op
	switch res {
	case ioRetry:
		// Parked in retryq; stReadNode reissues the read after the backoff.
		t.scheduleRetry(o, t.retryDelay(o.ioRetries))
		return
	case ioOK:
		o.ioData, o.ioFor = c.Buf, storage.PageID(c.LBA)
		t.fill(o.ioFor, c.Buf, false)
	}
	t.pushReady(o, now)
}

// fill installs a page image a read brought in; prefetch marks a
// read-ahead's, which no lookup has referenced yet.
func (t *Tree) fill(id storage.PageID, data []byte, prefetch bool) {
	switch {
	case t.rw != nil:
		fill := t.rw.FillOnRead
		if prefetch {
			fill = t.rw.FillOnPrefetch
		}
		if victim, ev := fill(id, data); ev {
			t.queueBG(victim)
		}
	case prefetch:
		t.ro.FillOnPrefetch(id, data)
	default:
		t.ro.FillOnRead(id, data)
	}
	if t.pub != nil {
		// Publish what entered the buffer: a fill carries no key-range
		// bound, so publishFill preserves any bound the frame already had
		// (page ranges only change at splits, which publish via finishOp).
		t.pub.publishFill(id, data)
	}
}

// submitOpWrite issues o.writes[o.wIdx] (unjournaled strong mode). On
// completion the page enters the read-only buffer (§III-C's
// fill-on-write-complete rule) and the op advances to the next write.
func (t *Tree) submitOpWrite(o *Op) {
	w := o.writes[o.wIdx]
	t.submit(&ioCmd{
		Command: pageWrite(w.id, w.data),
		op:      o,
		retries: &o.ioRetries,
		done:    (*Tree).opWriteDone,
	})
}

func (t *Tree) opWriteDone(c *ioCmd, res ioResult, now sim.Time) {
	o := c.op
	switch res {
	case ioRetry:
		// Parked in retryq; stWriteNext reissues the same write.
		t.scheduleRetry(o, t.retryDelay(o.ioRetries))
		return
	case ioOK:
		if c.LBA != 0 {
			t.ro.FillOnWriteComplete(storage.PageID(c.LBA), c.Buf)
		}
		o.wIdx++
	}
	t.pushReady(o, now)
}

// ─── Latch helpers ──────────────────────────────────────────────────────

// acquireLatch requests a latch for o, returning true on immediate grant.
// On a queued request the op's reusable grant callback (an op waits on at
// most one latch at a time, so the request parameters ride in
// o.pendingLatch rather than a fresh closure) pushes o back to ready.
func (t *Tree) acquireLatch(o *Op, id storage.PageID, mode latch.Mode) bool {
	t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
	o.pendingLatch = heldLatch{id: id, mode: mode}
	granted := t.latches.Acquire(id, mode, o.grantFn)
	if granted {
		o.held = append(o.held, o.pendingLatch)
	} else {
		o.latchFrom = t.now() // contended: wait starts now
	}
	return granted
}

// grantLatch is the body of every op's reusable grant callback.
func (t *Tree) grantLatch(o *Op) {
	now := t.now()
	if w := now.Sub(o.latchFrom); w > 0 {
		o.latchWait += w
		if t.tr != nil {
			t.tr.Emit(tcLatchWait, uint16(o.kind), o.seq, uint64(o.pendingLatch.id), int64(o.latchFrom), int64(w))
		}
	}
	o.held = append(o.held, o.pendingLatch)
	t.pushReady(o, now)
}

// releaseLatch drops one held latch by id.
func (t *Tree) releaseLatch(o *Op, id storage.PageID) {
	for i, h := range o.held {
		if h.id == id {
			o.held = append(o.held[:i], o.held[i+1:]...)
			t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
			t.latches.Release(id, h.mode)
			return
		}
	}
	panic(fmt.Sprintf("core: releasing latch not held: page %d", id))
}

// releaseAllExcept drops every held latch except the one on keep.
func (t *Tree) releaseAllExcept(o *Op, keep storage.PageID) {
	kept := o.held[:0]
	for _, h := range o.held {
		if h.id == keep {
			kept = append(kept, h)
			continue
		}
		t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
		t.latches.Release(h.id, h.mode)
	}
	o.held = kept
}

// releaseAll drops every held latch.
func (t *Tree) releaseAll(o *Op) {
	for _, h := range o.held {
		t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
		t.latches.Release(h.id, h.mode)
	}
	o.held = o.held[:0]
}
