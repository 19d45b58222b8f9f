package storage

import "fmt"

// SearchStep is the outcome of SearchPage on one page image: either the
// next child to descend into (inner page) or the point-lookup result
// (leaf page).
type SearchStep struct {
	// Leaf reports which arm of the union is valid.
	Leaf bool
	// Child is the page to follow next and Index its position among the
	// page's children (inner pages).
	Child PageID
	Index int
	// Found and Value are the lookup result (leaf pages). Value is a
	// fresh copy; it does not alias buf.
	Found bool
	Value []byte
}

// SearchPage advances a point lookup one level directly on a verified
// page image, without materializing a Node: the binary search runs over
// the encoded slot array and, on a leaf hit, only the matched value is
// copied out. It performs the same structure validation as DecodeNode
// for the slots it touches but no checksum (see VerifyPage), and its
// search semantics mirror Node.ChildIndex / Node.SearchLeaf exactly (the
// property page_search tests pin down). Every descent the working thread
// makes steps inner pages with it; only a descent that may split decodes
// (see EditLeaf for the leaf a mutation ends on).
func SearchPage(buf []byte, key uint64) (SearchStep, error) {
	if len(buf) < PageSize {
		return SearchStep{}, fmt.Errorf("storage: short page (%d bytes)", len(buf))
	}
	kind := buf[0]
	level := buf[1]
	nkeys := int(getU16(buf[2:4]))
	switch kind {
	case KindLeaf:
		if level != 0 {
			return SearchStep{}, fmt.Errorf("storage: leaf with level %d: %w", level, ErrBadKind)
		}
		lo, hi := 0, nkeys
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if getU64(buf[headerSize+mid*slotSize:]) < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= nkeys || getU64(buf[headerSize+lo*slotSize:]) != key {
			return SearchStep{Leaf: true}, nil
		}
		vo := int(getU16(buf[headerSize+lo*slotSize+8:]))
		vl := int(getU16(buf[headerSize+lo*slotSize+10:]))
		if vo+vl > PageSize || vo < headerSize {
			return SearchStep{}, fmt.Errorf("storage: leaf slot %d out of range", lo)
		}
		v := make([]byte, vl)
		copy(v, buf[vo:vo+vl])
		return SearchStep{Leaf: true, Found: true, Value: v}, nil

	case KindInner:
		if level == 0 {
			return SearchStep{}, fmt.Errorf("storage: inner with level 0: %w", ErrBadKind)
		}
		lo, hi := 0, nkeys
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if key >= getU64(buf[headerSize+8+mid*innerEntry:]) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return SearchStep{Child: InnerChild(buf, lo), Index: lo}, nil

	default:
		return SearchStep{}, fmt.Errorf("storage: kind %d: %w", kind, ErrBadKind)
	}
}
