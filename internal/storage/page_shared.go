package storage

// This file reads verified page images in place, without decoding a Node
// and without writing to buf: a scan's leaf walk and the accessors scan
// read-ahead uses to pick sibling leaves.

// PageIsLeaf reports whether a sealed page image encodes a leaf. The
// caller must have verified the image.
func PageIsLeaf(buf []byte) bool { return buf[0] == KindLeaf }

// PageLevel returns a sealed page image's tree level (0 for a leaf). The
// caller must have verified the image.
func PageLevel(buf []byte) int { return int(buf[1]) }

// InnerChild returns child i of a verified inner page image: child 0
// follows the header, child i+1 the i-th separator.
func InnerChild(buf []byte, i int) PageID { return PageID(getU64(buf[headerSize+i*innerEntry:])) }

// InnerKey returns separator i of a verified inner page image, and
// whether the page has one: children i and i+1 are split at it.
func InnerKey(buf []byte, i int) (uint64, bool) {
	if i >= numKeys(buf) {
		return 0, false
	}
	return innerKey(buf, i), true
}

// LeafRangeShared iterates the pairs of a verified leaf image that fall in
// [lo, hi], emitting each (key, fresh value copy) in key order until emit
// returns false. It returns the leaf's right-sibling link and whether the
// range is exhausted: beyond=true means a key > hi was seen (or emit
// stopped the walk), so no page further right can contribute. It never
// writes to buf.
func LeafRangeShared(buf []byte, lo, hi uint64, emit func(key uint64, val []byte) bool) (next PageID, beyond bool) {
	next = PageID(getU64(buf[4:12]))
	for i, _ := leafSearch(buf, lo); i < numKeys(buf); i++ {
		if k := leafKey(buf, i); k > hi || !emit(k, leafValueCopy(buf, i)) {
			return next, true
		}
	}
	return next, false
}
