package storage

import "fmt"

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
func InnerChild(buf []byte, i int) PageID {
	if i == 0 {
		return PageID(getU64(buf[headerSize:]))
	}
	return PageID(getU64(buf[headerSize+8+(i-1)*innerEntry+8:]))
}

// InnerKey returns separator i of a verified inner page image, and
// whether the page has one: children i and i+1 are split at it.
func InnerKey(buf []byte, i int) (uint64, bool) {
	if i >= int(getU16(buf[2:4])) {
		return 0, false
	}
	return getU64(buf[headerSize+8+i*innerEntry:]), true
}

// LeafRangeShared iterates the pairs of a verified leaf image that fall in
// [lo, hi], emitting each (key, fresh value copy) in key order until emit
// returns false. It returns the leaf's right-sibling link and whether the
// range is exhausted: beyond=true means a key > hi was seen (or emit
// stopped the walk), so no page further right can contribute. It never
// writes to buf; the caller must have verified the image.
func LeafRangeShared(buf []byte, lo, hi uint64, emit func(key uint64, val []byte) bool) (next PageID, beyond bool, err error) {
	if buf[0] != KindLeaf || buf[1] != 0 {
		return NilPage, false, fmt.Errorf("storage: kind %d level %d in leaf walk: %w", buf[0], buf[1], ErrBadKind)
	}
	nkeys := int(getU16(buf[2:4]))
	next = PageID(getU64(buf[4:12]))
	// Binary search for the first slot >= lo, then emit forward.
	i, j := 0, nkeys
	for i < j {
		mid := int(uint(i+j) >> 1)
		if getU64(buf[headerSize+mid*slotSize:]) < lo {
			i = mid + 1
		} else {
			j = mid
		}
	}
	for ; i < nkeys; i++ {
		k := getU64(buf[headerSize+i*slotSize:])
		if k > hi {
			return next, true, nil
		}
		vo := int(getU16(buf[headerSize+i*slotSize+8:]))
		vl := int(getU16(buf[headerSize+i*slotSize+10:]))
		if vo+vl > PageSize || vo < headerSize {
			return NilPage, false, fmt.Errorf("storage: leaf slot %d out of range", i)
		}
		v := make([]byte, vl)
		copy(v, buf[vo:vo+vl])
		if !emit(k, v) {
			return next, true, nil
		}
	}
	return next, false, nil
}
