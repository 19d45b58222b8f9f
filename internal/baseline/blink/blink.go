// Package blink implements the Blink-Tree baseline [Lehman & Yao] used in
// the paper's end-to-end comparison (Figure 15): a B+ tree whose nodes
// carry a high key and a right-link, so readers traverse without latch
// coupling (chasing right-links when a concurrent split moved their key)
// and writers latch one node at a time with CAS-style locks. Like all the
// paper's baselines it follows the synchronous execution paradigm: every
// node access is a blocking I/O on the issuing thread.
package blink

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"github.com/patree/patree/internal/baseline/syncbtree"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

// node layout (512 bytes, little-endian):
//
//	[0]     kind (1=leaf, 2=inner)
//	[1]     level
//	[2:4]   nkeys
//	[4:12]  right-link page id (0 = rightmost)
//	[12:20] high key (valid when right-link != 0; keys >= high live right)
//	[20:24] crc32 (computed with this field zeroed)
//	leaf:  slots (key 8, off 2, len 2) forward; value bytes from the tail.
//	inner: child0 (8), then (key 8, child 8) pairs.
const (
	pageSize   = storage.PageSize
	headerSize = 24
	slotSize   = 12
	innerEntry = 16
	// maxInnerKeys = (512-24-8)/16 = 30
	maxInnerKeys = (pageSize - headerSize - 8) / innerEntry
	// splitMargin keeps room for separator inserts during cascades.
	innerSplitAt = maxInnerKeys - 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a page that fails verify.
var ErrCorrupt = errors.New("blink: corrupt page")

type node struct {
	id    storage.PageID
	leaf  bool
	level uint8
	right storage.PageID
	high  uint64
	keys  []uint64
	vals  [][]byte         // leaf
	kids  []storage.PageID // inner: len(keys)+1
}

func (n *node) used() int {
	u := headerSize + len(n.keys)*slotSize
	for _, v := range n.vals {
		u += len(v)
	}
	return u
}

func (n *node) fits(vlen int) bool { return n.used()+slotSize+vlen <= pageSize }

func (n *node) encode() []byte {
	buf := make([]byte, pageSize)
	if n.leaf {
		buf[0] = 1
	} else {
		buf[0] = 2
	}
	buf[1] = n.level
	binary.LittleEndian.PutUint16(buf[2:4], uint16(len(n.keys)))
	binary.LittleEndian.PutUint64(buf[4:12], uint64(n.right))
	binary.LittleEndian.PutUint64(buf[12:20], n.high)
	if n.leaf {
		heap := pageSize
		off := headerSize
		for i, k := range n.keys {
			v := n.vals[i]
			heap -= len(v)
			copy(buf[heap:], v)
			binary.LittleEndian.PutUint64(buf[off:], k)
			binary.LittleEndian.PutUint16(buf[off+8:], uint16(heap))
			binary.LittleEndian.PutUint16(buf[off+10:], uint16(len(v)))
			off += slotSize
		}
	} else {
		binary.LittleEndian.PutUint64(buf[headerSize:], uint64(n.kids[0]))
		off := headerSize + 8
		for i, k := range n.keys {
			binary.LittleEndian.PutUint64(buf[off:], k)
			binary.LittleEndian.PutUint64(buf[off+8:], uint64(n.kids[i+1]))
			off += innerEntry
		}
	}
	binary.LittleEndian.PutUint32(buf[20:24], 0)
	binary.LittleEndian.PutUint32(buf[20:24], crc32.Checksum(buf, crcTable))
	return buf
}

// verify reports, without writing to buf, whether it holds a full node
// page whose crc matches and whose shape decode can trust: a leaf's slots
// and every value lie inside the page and the values fit it together, an
// inner node holds at most maxInnerKeys keys. read verifies a fresh read before caching it; a
// cached image is trusted.
func verify(buf []byte) bool {
	if len(buf) < pageSize {
		return false
	}
	var zero [4]byte
	sum := crc32.Update(crc32.Checksum(buf[:20], crcTable), crcTable, zero[:])
	if crc32.Update(sum, crcTable, buf[24:pageSize]) != binary.LittleEndian.Uint32(buf[20:24]) {
		return false
	}
	nk := int(binary.LittleEndian.Uint16(buf[2:4]))
	slots := headerSize + nk*slotSize
	switch {
	case buf[0] == 2:
		return nk <= maxInnerKeys
	case buf[0] != 1 || slots > pageSize:
		return false
	}
	used := slots
	for off := headerSize; off < slots; off += slotSize {
		vo, vl := int(binary.LittleEndian.Uint16(buf[off+8:])), int(binary.LittleEndian.Uint16(buf[off+10:]))
		if vo < slots || vo+vl > pageSize {
			return false
		}
		used += vl
	}
	return used <= pageSize
}

// decode parses a verified node page; buf may be the cache's image.
func decode(id storage.PageID, buf []byte) *node {
	n := &node{
		id:    id,
		leaf:  buf[0] == 1,
		level: buf[1],
		right: storage.PageID(binary.LittleEndian.Uint64(buf[4:12])),
		high:  binary.LittleEndian.Uint64(buf[12:20]),
	}
	nk := int(binary.LittleEndian.Uint16(buf[2:4]))
	n.keys = make([]uint64, nk)
	if n.leaf {
		n.vals = make([][]byte, nk)
		off := headerSize
		for i := 0; i < nk; i++ {
			n.keys[i] = binary.LittleEndian.Uint64(buf[off:])
			vo := int(binary.LittleEndian.Uint16(buf[off+8:]))
			vl := int(binary.LittleEndian.Uint16(buf[off+10:]))
			n.vals[i] = append([]byte(nil), buf[vo:vo+vl]...)
			off += slotSize
		}
	} else {
		n.kids = make([]storage.PageID, nk+1)
		n.kids[0] = storage.PageID(binary.LittleEndian.Uint64(buf[headerSize:]))
		off := headerSize + 8
		for i := 0; i < nk; i++ {
			n.keys[i] = binary.LittleEndian.Uint64(buf[off:])
			n.kids[i+1] = storage.PageID(binary.LittleEndian.Uint64(buf[off+8:]))
			off += innerEntry
		}
	}
	return n
}

func (n *node) searchLeaf(key uint64) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && n.keys[lo] == key
}

func (n *node) childFor(key uint64) storage.PageID {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if key >= n.keys[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return n.kids[lo]
}

// covers reports whether key belongs to this node (not past its high key).
func (n *node) covers(key uint64) bool {
	return n.right == storage.NilPage || key < n.high
}

// Config parameterizes a Blink tree.
type Config struct {
	Persistence core.Persistence
	CachePages  int
}

// Tree is a multi-thread Blink tree over blocking I/O.
type Tree struct {
	cfg   Config
	costs core.CostModel // PA-Tree's, so CPU-efficiency comparisons are fair
	io    syncbtree.IO
	locks *syncbtree.CASLatch
	cache *syncbtree.Cache

	rootID  storage.PageID
	height  int
	numKeys uint64
	alloc   *storage.Allocator
}

// Format initializes an empty Blink tree on the device region via io,
// returning the tree. Must run on a simulated thread.
func Format(th *simos.Thread, sched *simos.Sched, io syncbtree.IO, cfg Config) (*Tree, error) {
	t := &Tree{
		cfg:    cfg,
		costs:  core.DefaultCosts(),
		io:     io,
		locks:  syncbtree.NewCASLatch(sched),
		cache:  syncbtree.NewCache(cfg.CachePages, io),
		rootID: 1,
		height: 1,
		alloc:  storage.NewAllocator(2),
	}
	root := &node{id: 1, leaf: true}
	if err := io.Write(th, 1, root.encode()); err != nil {
		return nil, err
	}
	return t, nil
}

// NumKeys returns the key count.
func (t *Tree) NumKeys() uint64 { return t.numKeys }

// Height returns the tree height.
func (t *Tree) Height() int { return t.height }

func (t *Tree) read(th *simos.Thread, id storage.PageID) (*node, error) {
	if data, ok := t.cache.Get(id); ok {
		th.Work(metrics.CatRealWork, t.costs.NodeVisit)
		return decode(id, data), nil
	}
	buf := make([]byte, pageSize)
	if err := t.io.Read(th, uint64(id), buf); err != nil {
		return nil, err
	}
	if !verify(buf) {
		return nil, ErrCorrupt
	}
	if err := t.cache.FillOnRead(th, id, buf); err != nil {
		return nil, err
	}
	th.Work(metrics.CatRealWork, t.costs.NodeVisit)
	return decode(id, buf), nil
}

func (t *Tree) write(th *simos.Thread, n *node) error {
	data := n.encode()
	if t.cfg.Persistence == core.WeakPersistence {
		return t.cache.Write(th, n.id, data)
	}
	if err := t.io.Write(th, uint64(n.id), data); err != nil {
		return err
	}
	return t.cache.FillOnRead(th, n.id, data)
}

// Search is a latch-free point lookup: descend, chasing right-links when
// a concurrent split moved the key range.
func (t *Tree) Search(th *simos.Thread, key uint64) ([]byte, bool, error) {
	id := t.rootID
	for {
		n, err := t.read(th, id)
		if err != nil {
			return nil, false, err
		}
		if !n.covers(key) {
			id = n.right
			continue
		}
		if n.leaf {
			if i, found := n.searchLeaf(key); found {
				return n.vals[i], true, nil
			}
			return nil, false, nil
		}
		id = n.childFor(key)
	}
}

// RangeScan collects [lo, hi] with limit (<= 0 unlimited), walking the
// leaf chain through right-links.
func (t *Tree) RangeScan(th *simos.Thread, lo, hi uint64, limit int) ([]core.KV, error) {
	id := t.rootID
	var n *node
	var err error
	for {
		n, err = t.read(th, id)
		if err != nil {
			return nil, err
		}
		if !n.covers(lo) {
			id = n.right
			continue
		}
		if n.leaf {
			break
		}
		id = n.childFor(lo)
	}
	var out []core.KV
	start := lo
	for {
		i, _ := n.searchLeaf(start)
		for ; i < len(n.keys); i++ {
			if n.keys[i] > hi {
				return out, nil
			}
			out = append(out, core.KV{Key: n.keys[i], Value: n.vals[i]})
			if limit > 0 && len(out) >= limit {
				return out, nil
			}
		}
		if n.right == storage.NilPage || n.high > hi {
			return out, nil
		}
		start = 0
		n, err = t.read(th, n.right)
		if err != nil {
			return nil, err
		}
	}
}

// descend records the last inner node visited at each level, for parent
// back-tracking during splits (Lehman-Yao's "stack").
func (t *Tree) descend(th *simos.Thread, key uint64) (storage.PageID, []storage.PageID, error) {
	var stack []storage.PageID
	id := t.rootID
	for {
		n, err := t.read(th, id)
		if err != nil {
			return 0, nil, err
		}
		if !n.covers(key) {
			id = n.right
			continue
		}
		if n.leaf {
			return id, stack, nil
		}
		stack = append(stack, id)
		id = n.childFor(key)
	}
}

// lockCovering locks id, re-reads it, and moves right (lock-coupled)
// until the node covering key is locked. Returns the locked node.
func (t *Tree) lockCovering(th *simos.Thread, id storage.PageID, key uint64) (*node, error) {
	t.locks.Lock(th, id)
	for {
		n, err := t.read(th, id)
		if err != nil {
			t.locks.Unlock(th, id)
			return nil, err
		}
		if n.covers(key) {
			return n, nil
		}
		next := n.right
		t.locks.Lock(th, next)
		t.locks.Unlock(th, id)
		id = next
	}
}

// Insert inserts or replaces key.
func (t *Tree) Insert(th *simos.Thread, key uint64, value []byte) (bool, error) {
	if len(value) > storage.MaxValueSize {
		return false, core.ErrValueTooLarge
	}
	leafID, stack, err := t.descend(th, key)
	if err != nil {
		return false, err
	}
	n, err := t.lockCovering(th, leafID, key)
	if err != nil {
		return false, err
	}
	// Replace in place when it fits.
	wasReplace := false
	if i, found := n.searchLeaf(key); found {
		old := n.vals[i]
		if n.used()-len(old)+len(value) <= pageSize {
			n.vals[i] = append([]byte(nil), value...)
			th.Work(metrics.CatRealWork, t.costs.LeafMutate)
			err := t.write(th, n)
			t.locks.Unlock(th, n.id)
			return true, err
		}
		// Delete then fall through to insertion (may split).
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		t.numKeys--
		wasReplace = true
	}
	_, err = t.insertLocked(th, n, stack, key, value, true)
	return wasReplace, err
}

// Update replaces key only if present.
func (t *Tree) Update(th *simos.Thread, key uint64, value []byte) (bool, error) {
	if len(value) > storage.MaxValueSize {
		return false, core.ErrValueTooLarge
	}
	leafID, stack, err := t.descend(th, key)
	if err != nil {
		return false, err
	}
	n, err := t.lockCovering(th, leafID, key)
	if err != nil {
		return false, err
	}
	i, found := n.searchLeaf(key)
	if !found {
		t.locks.Unlock(th, n.id)
		return false, nil
	}
	old := n.vals[i]
	if n.used()-len(old)+len(value) <= pageSize {
		n.vals[i] = append([]byte(nil), value...)
		th.Work(metrics.CatRealWork, t.costs.LeafMutate)
		err := t.write(th, n)
		t.locks.Unlock(th, n.id)
		return true, err
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.numKeys--
	return t.insertLocked(th, n, stack, key, value, true)
}

// insertLocked inserts (key, value) into the locked leaf n, splitting as
// needed; countKey controls numKeys accounting for fresh inserts.
func (t *Tree) insertLocked(th *simos.Thread, n *node, stack []storage.PageID,
	key uint64, value []byte, countKey bool) (bool, error) {
	replaced := false
	if _, found := n.searchLeaf(key); found {
		replaced = true
	}
	if n.fits(len(value)) || replaced {
		i, found := n.searchLeaf(key)
		v := append([]byte(nil), value...)
		if found {
			n.vals[i] = v
		} else {
			n.keys = append(n.keys, 0)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = key
			n.vals = append(n.vals, nil)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = v
			if countKey {
				t.numKeys++
			}
		}
		th.Work(metrics.CatRealWork, t.costs.LeafMutate)
		err := t.write(th, n)
		t.locks.Unlock(th, n.id)
		return replaced, err
	}
	// Split until the half covering key fits the value; with values
	// capped at storage.MaxValueSize a single-entry leaf always fits one
	// more, so the loop terminates.
	type pending struct {
		sep   uint64
		right storage.PageID
	}
	var seps []pending
	var rights []*node
	target := n
	for !target.fits(len(value)) {
		var sep uint64
		var right *node
		if len(target.keys) >= 2 {
			sep, right = t.splitLeaf(target)
		} else {
			// Positional split: isolate the insertion point so the new
			// value lands in an (almost) empty leaf. Needed because the
			// blink header is larger than the storage-layer one, so two
			// maximal values do not share a leaf.
			i, _ := target.searchLeaf(key)
			right = &node{id: t.alloc.Alloc(), leaf: true, right: target.right, high: target.high}
			right.keys = append(right.keys, target.keys[i:]...)
			right.vals = append(right.vals, target.vals[i:]...)
			if len(right.keys) > 0 {
				sep = right.keys[0]
			} else {
				sep = key
			}
			target.keys = target.keys[:i:i]
			target.vals = target.vals[:i:i]
			target.right = right.id
			target.high = sep
		}
		th.Work(metrics.CatRealWork, t.costs.Split)
		seps = append(seps, pending{sep: sep, right: right.id})
		rights = append(rights, right)
		if key >= sep {
			target = right
		}
	}
	i, _ := target.searchLeaf(key)
	v := append([]byte(nil), value...)
	target.keys = append(target.keys, 0)
	copy(target.keys[i+1:], target.keys[i:])
	target.keys[i] = key
	target.vals = append(target.vals, nil)
	copy(target.vals[i+1:], target.vals[i:])
	target.vals[i] = v
	if countKey {
		t.numKeys++
	}
	// Write the new chain rightmost-first so right-links never dangle,
	// then the original (still locked) leaf last.
	for j := len(rights) - 1; j >= 0; j-- {
		if err := t.write(th, rights[j]); err != nil {
			t.locks.Unlock(th, n.id)
			return false, err
		}
	}
	if err := t.write(th, n); err != nil {
		t.locks.Unlock(th, n.id)
		return false, err
	}
	t.locks.Unlock(th, n.id)
	// Propagate every separator into the parent level.
	for _, s := range seps {
		stackCopy := append([]storage.PageID(nil), stack...)
		if err := t.insertSeparator(th, stackCopy, s.sep, s.right, 1); err != nil {
			return false, err
		}
	}
	return replaced, nil
}

// splitLeaf moves the upper half of n to a new node and fixes links.
func (t *Tree) splitLeaf(n *node) (uint64, *node) {
	target := n.used() / 2
	used := headerSize
	cut := 0
	for i := range n.keys {
		used += slotSize + len(n.vals[i])
		if used > target && i > 0 {
			cut = i
			break
		}
		cut = i + 1
	}
	if cut >= len(n.keys) {
		cut = len(n.keys) - 1
	}
	if cut < 1 {
		cut = 1
	}
	right := &node{id: t.alloc.Alloc(), leaf: true, right: n.right, high: n.high}
	right.keys = append(right.keys, n.keys[cut:]...)
	right.vals = append(right.vals, n.vals[cut:]...)
	sep := right.keys[0]
	n.keys = n.keys[:cut:cut]
	n.vals = n.vals[:cut:cut]
	n.right = right.id
	n.high = sep
	return sep, right
}

// insertSeparator inserts (sep -> rightID) into the parent at the given
// level, splitting upward as needed; an empty stack means the root split.
func (t *Tree) insertSeparator(th *simos.Thread, stack []storage.PageID,
	sep uint64, rightID storage.PageID, level uint8) error {
	if len(stack) == 0 {
		return t.growRoot(th, sep, rightID, level)
	}
	parentID := stack[len(stack)-1]
	stack = stack[:len(stack)-1]
	p, err := t.lockCovering(th, parentID, sep)
	if err != nil {
		return err
	}
	// Insert the separator.
	lo, hi := 0, len(p.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if sep >= p.keys[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p.keys = append(p.keys, 0)
	copy(p.keys[lo+1:], p.keys[lo:])
	p.keys[lo] = sep
	p.kids = append(p.kids, storage.NilPage)
	copy(p.kids[lo+2:], p.kids[lo+1:])
	p.kids[lo+1] = rightID
	if len(p.keys) <= innerSplitAt {
		err := t.write(th, p)
		t.locks.Unlock(th, p.id)
		return err
	}
	// Split the inner node.
	mid := len(p.keys) / 2
	upSep := p.keys[mid]
	right := &node{id: t.alloc.Alloc(), level: p.level, right: p.right, high: p.high}
	right.keys = append(right.keys, p.keys[mid+1:]...)
	right.kids = append(right.kids, p.kids[mid+1:]...)
	p.keys = p.keys[:mid:mid]
	p.kids = p.kids[: mid+1 : mid+1]
	p.right = right.id
	p.high = upSep
	th.Work(metrics.CatRealWork, t.costs.Split)
	if err := t.write(th, right); err != nil {
		t.locks.Unlock(th, p.id)
		return err
	}
	if err := t.write(th, p); err != nil {
		t.locks.Unlock(th, p.id)
		return err
	}
	t.locks.Unlock(th, p.id)
	return t.insertSeparator(th, stack, upSep, right.id, p.level+1)
}

// growRoot hoists a new root after a root split, or — when another
// thread already grew the tree past this level — routes the separator to
// the inner node now covering it (the Lehman-Yao race).
func (t *Tree) growRoot(th *simos.Thread, sep uint64, rightID storage.PageID, level uint8) error {
	// Serialize root growth with a lock on the meta slot (page 0).
	t.locks.Lock(th, 0)
	if t.height == int(level) {
		oldRoot := t.rootID
		newRoot := &node{id: t.alloc.Alloc(), level: level,
			kids: []storage.PageID{oldRoot, rightID}, keys: []uint64{sep}}
		if err := t.write(th, newRoot); err != nil {
			t.locks.Unlock(th, 0)
			return err
		}
		t.rootID = newRoot.id
		t.height++
		t.locks.Unlock(th, 0)
		return nil
	}
	t.locks.Unlock(th, 0)
	// The root grew underneath us: descend to the node at `level` that
	// covers sep and insert there.
	id := t.rootID
	for {
		n, err := t.read(th, id)
		if err != nil {
			return err
		}
		if !n.covers(sep) {
			id = n.right
			continue
		}
		if n.level == level {
			return t.insertSeparator(th, []storage.PageID{id}, sep, rightID, level)
		}
		id = n.childFor(sep)
	}
}

// Delete removes key (leaves may become sparse; no merging, like the
// other trees in this reproduction).
func (t *Tree) Delete(th *simos.Thread, key uint64) (bool, error) {
	leafID, _, err := t.descend(th, key)
	if err != nil {
		return false, err
	}
	n, err := t.lockCovering(th, leafID, key)
	if err != nil {
		return false, err
	}
	i, found := n.searchLeaf(key)
	if !found {
		t.locks.Unlock(th, n.id)
		return false, nil
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.numKeys--
	th.Work(metrics.CatRealWork, t.costs.LeafMutate)
	err = t.write(th, n)
	t.locks.Unlock(th, n.id)
	return true, err
}

// Sync flushes buffered updates (weak persistence).
func (t *Tree) Sync(th *simos.Thread) error { return t.cache.Sync(th) }

// SetPersistence switches the persistence mode and replaces the cache
// (callers must Sync first so no dirty pages are dropped). Used by the
// harness to load fast (weak) and then measure in the target mode.
func (t *Tree) SetPersistence(p core.Persistence, cachePages int) {
	if t.cache.DirtyCount() > 0 {
		panic("blink: SetPersistence with dirty pages; Sync first")
	}
	t.cfg.Persistence = p
	t.cfg.CachePages = cachePages
	t.cache = syncbtree.NewCache(cachePages, t.io)
}
