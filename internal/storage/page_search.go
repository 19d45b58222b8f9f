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
// copied out. Its search semantics mirror Node.ChildIndex /
// Node.SearchLeaf exactly (the property page_search tests pin down); only
// a page that is not a tree node is an error. Every descent the working
// thread makes steps inner pages with it; only a descent that may split
// decodes (see EditLeaf for the leaf a mutation ends on).
func SearchPage(buf []byte, key uint64) (SearchStep, error) {
	switch buf[0] {
	case KindLeaf:
		i, found := leafSearch(buf, key)
		if !found {
			return SearchStep{Leaf: true}, nil
		}
		return SearchStep{Leaf: true, Found: true, Value: leafValueCopy(buf, i)}, nil
	case KindInner:
		i := innerSearch(buf, key)
		return SearchStep{Child: InnerChild(buf, i), Index: i}, nil
	}
	return SearchStep{}, fmt.Errorf("storage: kind %d: %w", buf[0], ErrBadKind)
}
