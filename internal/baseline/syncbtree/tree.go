package syncbtree

import (
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/latch"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

// Config parameterizes a baseline tree.
type Config struct {
	// Persistence selects write-through (strong) or buffered (weak).
	Persistence core.Persistence
	// CachePages is the shared cache capacity (0 = no cache, the §V-A
	// configuration).
	CachePages int
}

// Tree is a synchronous-paradigm B+ tree over blocking I/O: identical
// node structure and latch-coupling protocol to PA-Tree, but every I/O
// blocks its thread (§V-A's baselines). Methods must be called from
// simulated threads.
type Tree struct {
	cfg     Config
	costs   core.CostModel // PA-Tree's, so CPU-efficiency comparisons are fair
	io      IO
	latches *Latches
	cache   *Cache

	rootID  storage.PageID
	height  int
	numKeys uint64
	alloc   *storage.Allocator
}

// NewTree opens a baseline tree over io from a meta image.
func NewTree(sched *simos.Sched, io IO, cfg Config, meta *storage.Meta) *Tree {
	return &Tree{
		cfg:     cfg,
		costs:   core.DefaultCosts(),
		io:      io,
		latches: NewLatches(sched),
		cache:   NewCache(cfg.CachePages, io),
		rootID:  meta.Root,
		height:  int(meta.Height),
		numKeys: meta.NumKeys,
		alloc:   storage.NewAllocator(meta.Watermark),
	}
}

// NumKeys returns the key count.
func (t *Tree) NumKeys() uint64 { return t.numKeys }

// LatchWaits returns the number of blocked latch acquisitions.
func (t *Tree) LatchWaits() uint64 { return t.latches.Waits() }

// readNode loads and decodes a page (cache first, then blocking I/O),
// verifying a fresh read before it is cached: a cached image is trusted.
func (t *Tree) readNode(th *simos.Thread, id storage.PageID) (*storage.Node, error) {
	if data, ok := t.cache.Get(id); ok {
		th.Work(metrics.CatRealWork, t.costs.NodeVisit)
		return storage.DecodeNode(id, data)
	}
	buf := make([]byte, storage.PageSize)
	if err := t.io.Read(th, uint64(id), buf); err != nil {
		return nil, err
	}
	if !storage.VerifyPage(id, buf) {
		return nil, storage.ErrCorruptPage
	}
	if err := t.cache.FillOnRead(th, id, buf); err != nil {
		return nil, err
	}
	th.Work(metrics.CatRealWork, t.costs.NodeVisit)
	return storage.DecodeNode(id, buf)
}

// writeNode persists a modified node per the persistence mode.
func (t *Tree) writeNode(th *simos.Thread, n *storage.Node) error {
	data := n.Encode()
	if t.cfg.Persistence == core.WeakPersistence {
		return t.cache.Write(th, n.ID, data)
	}
	if err := t.io.Write(th, uint64(n.ID), data); err != nil {
		return err
	}
	return t.cache.FillOnRead(th, n.ID, data)
}

func (t *Tree) writeMeta(th *simos.Thread) error {
	meta := &storage.Meta{
		Root:      t.rootID,
		Height:    uint8(t.height),
		Watermark: t.alloc.Watermark(),
		NumKeys:   t.numKeys,
	}
	if t.cfg.Persistence == core.WeakPersistence {
		return t.cache.Write(th, 0, meta.Encode())
	}
	return t.io.Write(th, 0, meta.Encode())
}

// entryLatch acquires the root latch with the root-change recheck.
func (t *Tree) entryLatch(th *simos.Thread, mode latch.Mode) (storage.PageID, error) {
	for {
		id := t.rootID
		t.latches.Acquire(th, id, mode)
		if id == t.rootID {
			return id, nil
		}
		t.latches.Release(th, id, mode)
	}
}

// Search performs a blocking point lookup with S-latch coupling.
func (t *Tree) Search(th *simos.Thread, key uint64) ([]byte, bool, error) {
	id, err := t.entryLatch(th, latch.Shared)
	if err != nil {
		return nil, false, err
	}
	for {
		node, err := t.readNode(th, id)
		if err != nil {
			t.latches.Release(th, id, latch.Shared)
			return nil, false, err
		}
		if node.IsLeaf() {
			i, found := node.SearchLeaf(key)
			var val []byte
			if found {
				val = node.Vals[i]
			}
			t.latches.Release(th, id, latch.Shared)
			return val, found, nil
		}
		child := node.Children[node.ChildIndex(key)]
		t.latches.Acquire(th, child, latch.Shared)
		t.latches.Release(th, id, latch.Shared)
		id = child
	}
}

// RangeScan collects pairs in [lo, hi] (limit <= 0 means unlimited),
// coupling S latches down the tree and across the leaf chain.
func (t *Tree) RangeScan(th *simos.Thread, lo, hi uint64, limit int) ([]core.KV, error) {
	id, err := t.entryLatch(th, latch.Shared)
	if err != nil {
		return nil, err
	}
	// Descend to the first leaf.
	var node *storage.Node
	for {
		node, err = t.readNode(th, id)
		if err != nil {
			t.latches.Release(th, id, latch.Shared)
			return nil, err
		}
		if node.IsLeaf() {
			break
		}
		child := node.Children[node.ChildIndex(lo)]
		t.latches.Acquire(th, child, latch.Shared)
		t.latches.Release(th, id, latch.Shared)
		id = child
	}
	var out []core.KV
	start := lo
	for {
		i, _ := node.SearchLeaf(start)
		for ; i < len(node.Keys); i++ {
			if node.Keys[i] > hi {
				t.latches.Release(th, id, latch.Shared)
				return out, nil
			}
			out = append(out, core.KV{Key: node.Keys[i], Value: node.Vals[i]})
			if limit > 0 && len(out) >= limit {
				t.latches.Release(th, id, latch.Shared)
				return out, nil
			}
		}
		if node.Next == storage.NilPage {
			t.latches.Release(th, id, latch.Shared)
			return out, nil
		}
		next := node.Next
		t.latches.Acquire(th, next, latch.Shared)
		t.latches.Release(th, id, latch.Shared)
		id = next
		start = 0
		node, err = t.readNode(th, id)
		if err != nil {
			t.latches.Release(th, id, latch.Shared)
			return nil, err
		}
	}
}

// pathEntry is one held node on the update descent.
type pathEntry struct {
	id   storage.PageID
	node *storage.Node
}

// Insert inserts or replaces key, with X-latch coupling, preemptive
// splitting and release of split-safe ancestors — the same structural
// protocol as PA-Tree, executed synchronously.
func (t *Tree) Insert(th *simos.Thread, key uint64, value []byte) (bool, error) {
	return t.update(th, key, value, false)
}

// Update replaces key if present.
func (t *Tree) Update(th *simos.Thread, key uint64, value []byte) (bool, error) {
	return t.update(th, key, value, true)
}

func (t *Tree) update(th *simos.Thread, key uint64, value []byte, mustExist bool) (bool, error) {
	if len(value) > storage.MaxValueSize {
		return false, core.ErrValueTooLarge
	}
	// Optimistic pass (same protocol as PA-Tree): shared latches on inner
	// nodes, exclusive only on the leaf; restart pessimistically when the
	// leaf must split.
	if t.height > 1 {
		done, replaced, err := t.optimisticUpdate(th, key, value, mustExist)
		if done {
			return replaced, err
		}
	}
	return t.pessimisticUpdate(th, key, value, mustExist)
}

// optimisticUpdate attempts the S-inner/X-leaf descent; done=false means
// the caller must retry with exclusive coupling.
func (t *Tree) optimisticUpdate(th *simos.Thread, key uint64, value []byte, mustExist bool) (done, replaced bool, err error) {
	id, err := t.entryLatch(th, latch.Shared)
	if err != nil {
		return true, false, err
	}
	mode := latch.Shared
	for {
		node, err := t.readNode(th, id)
		if err != nil {
			t.latches.Release(th, id, mode)
			return true, false, err
		}
		if node.IsLeaf() {
			if mode != latch.Exclusive {
				// Height shrank to a root leaf mid-flight; retry.
				t.latches.Release(th, id, mode)
				return false, false, nil
			}
			i, found := node.SearchLeaf(key)
			if mustExist && !found {
				t.latches.Release(th, id, mode)
				return true, false, nil
			}
			if t.needsSplit(node, key, value) {
				t.latches.Release(th, id, mode)
				return false, false, nil // pessimistic retry
			}
			_ = i
			rep := node.InsertLeaf(key, value)
			if !rep {
				t.numKeys++
			}
			th.Work(metrics.CatRealWork, t.costs.LeafMutate)
			werr := t.writeNode(th, node)
			t.latches.Release(th, id, mode)
			return true, rep, werr
		}
		child := node.Children[node.ChildIndex(key)]
		childMode := latch.Shared
		if node.Level == 1 {
			childMode = latch.Exclusive
		}
		t.latches.Acquire(th, child, childMode)
		t.latches.Release(th, id, mode)
		id, mode = child, childMode
	}
}

func (t *Tree) pessimisticUpdate(th *simos.Thread, key uint64, value []byte, mustExist bool) (bool, error) {
	costs := &t.costs
	id, err := t.entryLatch(th, latch.Exclusive)
	if err != nil {
		return false, err
	}
	held := []pathEntry{{id: id}}
	var modified []*storage.Node
	releaseAll := func() {
		for _, h := range held {
			t.latches.Release(th, h.id, latch.Exclusive)
		}
	}
	isModified := func(id storage.PageID) bool {
		for _, m := range modified {
			if m.ID == id {
				return true
			}
		}
		return false
	}
	// releaseSafe drops all held latches above the current (last) entry
	// that protect unmodified nodes.
	releaseSafe := func() {
		kept := held[:0]
		last := held[len(held)-1].id
		for _, h := range held {
			if h.id == last || isModified(h.id) {
				kept = append(kept, h)
				continue
			}
			t.latches.Release(th, h.id, latch.Exclusive)
		}
		held = kept
	}

	rootChanged := false
	var parent *storage.Node
	for {
		cur := &held[len(held)-1]
		if cur.node == nil {
			n, err := t.readNode(th, cur.id)
			if err != nil {
				releaseAll()
				return false, err
			}
			cur.node = n
		}
		node := cur.node

		if t.needsSplit(node, key, value) {
			if mustExist && node.IsLeaf() {
				if _, found := node.SearchLeaf(key); !found {
					releaseAll()
					return false, nil
				}
			}
			t.split(th, &held, &modified, &parent, node, key, value, &rootChanged)
			// The split reshuffled held so its tail is the half covering
			// key; re-enter the loop there.
			continue
		}

		if node.IsLeaf() {
			i, found := node.SearchLeaf(key)
			if mustExist && !found {
				releaseAll()
				return false, nil
			}
			_ = i
			replaced := node.InsertLeaf(key, value)
			if !replaced {
				t.numKeys++
			}
			th.Work(metrics.CatRealWork, costs.LeafMutate)
			t.markMod(&modified, node)
			if err := t.flushModified(th, modified, rootChanged); err != nil {
				releaseAll()
				return false, err
			}
			releaseAll()
			return replaced, nil
		}

		releaseSafe()
		parent = node
		child := node.Children[node.ChildIndex(key)]
		t.latches.Acquire(th, child, latch.Exclusive)
		held = append(held, pathEntry{id: child})
	}
}

// addHeld appends an entry if its id is not already held.
func addHeld(held *[]pathEntry, e pathEntry) {
	for _, h := range *held {
		if h.id == e.id {
			return
		}
	}
	*held = append(*held, e)
}

// moveToTail makes the entry for id the last element of held.
func moveToTail(held *[]pathEntry, id storage.PageID) {
	for i, h := range *held {
		if h.id == id {
			*held = append(append((*held)[:i:i], (*held)[i+1:]...), h)
			return
		}
	}
	panic("syncbtree: moveToTail of node not held")
}

func (t *Tree) needsSplit(node *storage.Node, key uint64, value []byte) bool {
	if !node.IsLeaf() {
		return node.NumKeys() >= storage.InnerMaxKeys-6
	}
	if i, found := node.SearchLeaf(key); found {
		return !node.LeafFitsReplace(i, len(value))
	}
	return !node.LeafFits(len(value))
}

// split mirrors core's splitCurrent for the synchronous engine: it splits
// node under its held parent (hoisting a new root when needed), keeping
// every touched node latched and recorded in modified, and reorders held
// so its tail is the half covering key. *parent is updated to the node
// one level above that target.
func (t *Tree) split(th *simos.Thread, held *[]pathEntry, modified *[]*storage.Node,
	parent **storage.Node, node *storage.Node, key uint64, value []byte, rootChanged *bool) {
	costs := &t.costs
	if *parent == nil {
		newRootID := t.alloc.Alloc()
		newRoot := storage.NewInner(newRootID, node.Level+1)
		newRoot.Children = []storage.PageID{node.ID}
		t.latches.Acquire(th, newRootID, latch.Exclusive)
		addHeld(held, pathEntry{id: newRootID, node: newRoot})
		t.markMod(modified, newRoot)
		t.rootID = newRootID
		t.height++
		*rootChanged = true
		*parent = newRoot
	}
	p := *parent
	target := node
	if !node.IsLeaf() {
		rightID := t.alloc.Alloc()
		sep, right := node.SplitInner(rightID)
		t.latches.Acquire(th, rightID, latch.Exclusive)
		p.InsertInner(sep, rightID)
		th.Work(metrics.CatRealWork, costs.Split)
		t.markMod(modified, node)
		t.markMod(modified, right)
		t.markMod(modified, p)
		addHeld(held, pathEntry{id: rightID, node: right})
		if key >= sep {
			target = right
		}
	} else {
		t.markMod(modified, p)
		for {
			var fits bool
			if i, found := target.SearchLeaf(key); found {
				fits = target.LeafFitsReplace(i, len(value))
			} else {
				fits = target.LeafFits(len(value))
			}
			if fits {
				break
			}
			if target.NumKeys() < 2 {
				panic("syncbtree: unsplittable leaf")
			}
			rightID := t.alloc.Alloc()
			sep, right := target.SplitLeaf(rightID)
			t.latches.Acquire(th, rightID, latch.Exclusive)
			p.InsertInner(sep, rightID)
			th.Work(metrics.CatRealWork, costs.Split)
			t.markMod(modified, target)
			t.markMod(modified, right)
			addHeld(held, pathEntry{id: rightID, node: right})
			if key >= sep {
				target = right
			}
		}
		if p.NumKeys() > storage.InnerMaxKeys {
			panic("syncbtree: parent overflow after leaf multi-split")
		}
	}
	moveToTail(held, target.ID)
}

func (t *Tree) markMod(modified *[]*storage.Node, n *storage.Node) {
	for _, m := range *modified {
		if m == n {
			return
		}
	}
	*modified = append(*modified, n)
}

// flushModified persists modified nodes children-first, plus the meta
// page when the root changed.
func (t *Tree) flushModified(th *simos.Thread, modified []*storage.Node, rootChanged bool) error {
	mods := append([]*storage.Node(nil), modified...)
	for i := 0; i < len(mods); i++ {
		for j := i + 1; j < len(mods); j++ {
			if mods[j].Level < mods[i].Level {
				mods[i], mods[j] = mods[j], mods[i]
			}
		}
	}
	for _, n := range mods {
		if err := t.writeNode(th, n); err != nil {
			return err
		}
	}
	if rootChanged {
		return t.writeMeta(th)
	}
	return nil
}

// Delete removes key (no structural shrinking, matching PA-Tree).
func (t *Tree) Delete(th *simos.Thread, key uint64) (bool, error) {
	id, err := t.entryLatch(th, latch.Exclusive)
	if err != nil {
		return false, err
	}
	for {
		node, err := t.readNode(th, id)
		if err != nil {
			t.latches.Release(th, id, latch.Exclusive)
			return false, err
		}
		if node.IsLeaf() {
			i, found := node.SearchLeaf(key)
			if !found {
				t.latches.Release(th, id, latch.Exclusive)
				return false, nil
			}
			node.DeleteLeafAt(i)
			t.numKeys--
			th.Work(metrics.CatRealWork, t.costs.LeafMutate)
			err := t.writeNode(th, node)
			t.latches.Release(th, id, latch.Exclusive)
			return true, err
		}
		child := node.Children[node.ChildIndex(key)]
		t.latches.Acquire(th, child, latch.Exclusive)
		t.latches.Release(th, id, latch.Exclusive)
		id = child
	}
}

// Sync flushes all buffered updates and the meta page (weak persistence).
func (t *Tree) Sync(th *simos.Thread) error {
	if err := t.writeMeta(th); err != nil {
		return err
	}
	return t.cache.Sync(th)
}
