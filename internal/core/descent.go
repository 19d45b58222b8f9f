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
			if !o.pessimistic {
				t.releaseAllExcept(o, o.cur)
				o.prevNode = nil
			}
			o.state = stReadNode

		case stReadNode:
			// The image this op's own demand read, or the read-ahead it
			// parked on, brought in is used as it is: the lookup that
			// missed was this visit's one reference to the page, and a
			// second lookup would promote it in the buffer.
			data, ok := o.ioData, o.ioData != nil && o.ioFor == o.cur
			o.ioData = nil
			if !ok {
				data, ok = t.lookupPage(o.cur)
			}
			if !ok {
				if ws, ok := t.readAheads.Get(o.cur); ok {
					// A scan's read-ahead of this page is in flight: park
					// on it instead of issuing a duplicate (pipeline.go
					// hands the image over when it is reaped).
					t.readAheads.Put(o.cur, append(ws, raWaiter{op: o, since: t.now()}))
					t.stats.ReadAheadHits++
					return // I/O-blocked on the read-ahead
				}
				t.submitRead(o)
				return // I/O-blocked, or stalled on a full queue
			}
			switch {
			case o.kind != KindSearch && storage.PageIsLeaf(data):
				// The leaf a scan or a mutation ends on is read in place
				// too (leafAction): only a split decodes it.
				o.curNode, o.page = nil, data
			case !o.pessimistic:
				// A descent that cannot split steps over the sealed page
				// image: the binary search runs over the encoded slot
				// array, with the same latch protocol and CPU charge as
				// a decoded visit, and no allocation.
				if t.searchStep(o, data) {
					return
				}
				continue
			default:
				// A pessimistic update may split this node into its
				// parent: it works on decoded Nodes (splitCurrent).
				node, err := storage.DecodeNode(o.cur, data)
				if err != nil {
					t.failOp(o, err)
					return
				}
				o.curNode = node
			}
			t.charge(metrics.CatRealWork, t.costs.NodeVisit)
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

// searchStep advances a descent one level on the sealed page image data
// (see stReadNode): a point search ends on its leaf, every other op
// steps over inner pages. Returns true when the op left the ready set
// (completed, failed, or latch-blocked on the child).
func (t *Tree) searchStep(o *Op, data []byte) bool {
	step, err := storage.SearchPage(data, o.key)
	if err != nil {
		t.failOp(o, err)
		return true
	}
	t.charge(metrics.CatRealWork, t.costs.NodeVisit)
	if step.Leaf {
		o.Res.Found, o.Res.Value = step.Found, step.Value
		t.finishOp(o)
		return true
	}
	if t.cfg.Pipelined && o.kind == KindRange {
		t.readAhead(o, data, step.Index)
	}
	o.cur = step.Child
	o.depth++
	o.state = stChildGranted
	return !t.acquireLatch(o, step.Child, t.latchModeFor(o, storage.PageLevel(data)-1))
}

// processNode runs o's index logic on the page it has in hand: the sealed
// leaf in o.page, or the decoded inner node of a pessimistic descent in
// o.curNode. Returns true when the op left the ready set (done or
// waiting).
func (t *Tree) processNode(o *Op) bool {
	node := o.curNode
	if node == nil {
		return t.leafAction(o)
	}
	if node.NumKeys() >= storage.InnerMaxKeys-innerSplitMargin {
		// Top-down preemptive splitting (see DESIGN.md), then re-process
		// the (possibly new) current node.
		t.splitCurrent(o)
		return false
	}
	// This node is split-safe: ancestors not pinned by modifications can
	// be released (latch coupling for updates, §III-B).
	t.releaseSafeAncestors(o)
	o.prevNode = node
	o.cur = node.Children[node.ChildIndex(o.key)]
	o.depth++
	o.state = stChildGranted
	return !t.acquireLatch(o, o.cur, t.latchModeFor(o, int(node.Level)-1))
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

// leafAction applies o to the sealed leaf image o.page. A mutation is one
// storage.EditLeaf, the edit recovery folds a leaf record with: its fresh
// image becomes the op's write, and the image it was made from, which the
// buffer and in-flight writes share, is left as it is. Only a change the
// leaf cannot hold takes the split path.
func (t *Tree) leafAction(o *Op) bool {
	if o.kind == KindRange {
		return t.scanLeaf(o)
	}
	if len(o.value) > storage.MaxValueSize {
		t.failOp(o, ErrValueTooLarge)
		return true
	}
	img := make([]byte, storage.PageSize)
	found, fits := storage.EditLeaf(img, o.page, o.cur, o.key, o.value, o.kind == KindDelete)
	switch {
	case !found && (o.kind == KindDelete || (o.kind == KindUpdate && !fits)):
		// Nothing to delete, or no key to update that would be worth a
		// split: done, Found false.
		t.finishOp(o)
		return true
	case !fits && !o.pessimistic:
		// Optimistic descent found a leaf that must split: restart with
		// exclusive coupling (rare; see Op.pessimistic).
		o.pessimistic = true
		t.releaseAll(o)
		o.state = stEntry
		return false
	case !fits:
		// Exclusive coupling holds the parent: split, then edit the half
		// covering the key. A leaf always decodes.
		o.curNode, _ = storage.DecodeNode(o.cur, o.page)
		t.splitCurrent(o)
		o.page, o.curNode = o.curNode.Encode(), nil
		return false
	}
	if !t.journalGate(o) {
		return true // deferred before mutating; re-runs via retryq
	}
	if !found && o.kind == KindUpdate {
		t.finishOp(o)
		return true
	}
	o.Res.Found = found
	switch {
	case o.kind == KindDelete:
		t.numKeys--
	case !found:
		t.numKeys++
	}
	t.charge(metrics.CatRealWork, t.costs.LeafMutate)
	o.page = img
	o.holdsWrite = true
	if len(o.modified) > 0 && !o.isModified(o.cur) {
		// Pages above were split on the way down: the leaf joins their
		// group, in the place its decoded Node used to take.
		t.markModified(o, storage.NewLeaf(o.cur))
	}
	return t.beginWriteback(o)
}

// scanLeaf collects the pairs of the sealed leaf o.page that a range scan
// wants, then finishes or moves on to the right sibling with latch
// coupling; every key there exceeds everything here, so the scan resumes
// from its first slot.
//
// A right step that does not advance is a cycle in the leaf chain, which
// no single page's check can see: a leaf linked to itself, a leaf whose
// keys do not exceed those already returned, or more steps than the
// allocator has handed out pages. It fails the scan alone with
// ErrCorruptPage instead of circling forever.
func (t *Tree) scanLeaf(o *Op) bool {
	had := len(o.Res.Pairs)
	next, beyond := storage.LeafRangeShared(o.page, o.key, o.endKey, func(k uint64, v []byte) bool {
		o.Res.Pairs = append(o.Res.Pairs, KV{Key: k, Value: v})
		return o.limit <= 0 || len(o.Res.Pairs) < o.limit
	})
	if had > 0 && len(o.Res.Pairs) > had && o.Res.Pairs[had].Key <= o.Res.Pairs[had-1].Key {
		t.failOp(o, storage.ErrCorruptPage)
		return true
	}
	if beyond || next == storage.NilPage {
		t.finishOp(o)
		return true
	}
	if next == o.cur || storage.PageID(o.depth) >= t.alloc.Watermark() {
		t.failOp(o, storage.ErrCorruptPage)
		return true
	}
	o.key = 0
	o.cur = next
	o.depth++
	o.state = stChildGranted
	return !t.acquireLatch(o, o.cur, o.mode)
}

// splitCurrent splits o.curNode (held X), inserting separators into the
// held parent (creating a new root when the current node is the root).
// For leaves it loops byte-balanced splits until the incoming value fits
// the half covering the key, which it leaves in o.curNode for leafAction
// to edit. All modified nodes stay latched and are queued for write-back.
func (t *Tree) splitCurrent(o *Op) {
	node := o.curNode
	parent := o.prevNode
	costs := &t.costs

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
		t.charge(metrics.CatSync, t.costs.LatchOp)
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

// beginWriteback finishes an update operation. Its leaf edit and each node
// a split modified, encoded once, are its images, in o.writes, and every
// consumer takes them: the in-place write (strong), the buffer (weak or
// journaled) and the redo record. An unjournaled strong tree
// orders the pages leaves before parents, meta last, and moves the op to
// the write pipeline; a buffering tree stores them and completes,
// scheduling evicted victims in the background (§III-C) — with the
// journal on, once stJournal has made the redo group durable. Returns
// true iff the op left the ready set (the processNode convention).
func (t *Tree) beginWriteback(o *Op) bool {
	if !t.writeBack {
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
	if len(o.modified) == 0 {
		// An op that split nothing writes its leaf edit alone.
		o.writes = append(o.writes, writeReq{id: o.cur, data: o.page})
	}
	for _, n := range o.modified {
		img := o.page // the edited leaf: its Node only holds its place
		if n.ID != o.cur {
			img = n.Encode()
		}
		o.writes = append(o.writes, writeReq{id: n.ID, data: img})
	}
	if t.writeBack {
		for _, w := range o.writes {
			t.bufferWrite(w.id, w.data)
		}
	}
	if o.commit != nil && (!t.writeBack || t.journalOn) {
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
	case t.writeBack:
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

// lookupPage consults the buffer, then the in-flight write-back table
// (empty in a write-through tree), for the page image of id.
func (t *Tree) lookupPage(id storage.PageID) ([]byte, bool) {
	if data, ok := t.buf.Get(id); ok {
		return data, true
	}
	if data, ok := t.inflight.Get(id); ok {
		// Refill the buffer: content is identical to what is being
		// persisted right now.
		if victim, ev := t.buf.FillOnRead(id, data); ev {
			t.queueBG(victim)
		}
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
	fill := t.buf.FillOnRead
	if prefetch {
		fill = t.buf.FillOnPrefetch
	}
	if victim, ev := fill(id, data); ev {
		t.queueBG(victim)
	}
}

// submitOpWrite issues o.writes[o.wIdx] (unjournaled strong mode). On
// completion the page enters the buffer clean (§III-C's
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
			t.buf.FillOnRead(storage.PageID(c.LBA), c.Buf) // never dirty: no victim
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
	t.charge(metrics.CatSync, t.costs.LatchOp)
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
			t.charge(metrics.CatSync, t.costs.LatchOp)
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
		t.charge(metrics.CatSync, t.costs.LatchOp)
		t.latches.Release(h.id, h.mode)
	}
	o.held = kept
}

// releaseAll drops every held latch.
func (t *Tree) releaseAll(o *Op) {
	for _, h := range o.held {
		t.charge(metrics.CatSync, t.costs.LatchOp)
		t.latches.Release(h.id, h.mode)
	}
	o.held = o.held[:0]
}
