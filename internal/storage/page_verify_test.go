package storage

import (
	"bytes"
	"testing"
)

// verifyLeaf and verifyInner are the sealed pages the verify tests bend:
// a leaf of three pairs (page 7) and an inner node of three keys (page 8).
func verifyLeaf() []byte {
	n := NewLeaf(7)
	for k := uint64(1); k <= 3; k++ {
		n.InsertLeaf(k*10, []byte("value"))
	}
	return n.Encode()
}

func verifyInner() []byte {
	n := NewInner(8, 1)
	n.Keys = []uint64{10, 20, 30}
	n.Children = []PageID{100, 101, 102, 103}
	return n.Encode()
}

// resealed returns a copy of page with edit applied, sealed as page id.
func resealed(page []byte, id PageID, edit func([]byte)) []byte {
	b := bytes.Clone(page)
	edit(b)
	seal(id, b)
	return b
}

// TestVerifyPageRefusesShapes: VerifyPage is the one check of a page, so
// every image a reader could trip on — a bad checksum or a sealed page of
// the wrong shape — is refused there.
func TestVerifyPageRefusesShapes(t *testing.T) {
	leaf, inner := verifyLeaf(), verifyInner()
	for _, c := range []struct {
		name string
		id   PageID
		page []byte
		want bool
	}{
		{"sealed leaf", 7, leaf, true},
		{"sealed inner node", 8, inner, true},
		{"sealed meta page", NilPage, (&Meta{Root: 1}).Encode(), true},
		{"full inner node", 8, func() []byte {
			n := NewInner(8, 1)
			n.Children = []PageID{100}
			for k := range InnerMaxKeys {
				n.InsertInner(uint64(k+1)*10, PageID(101+k))
			}
			return n.Encode()
		}(), true},
		{"short page", 7, leaf[:PageSize-1], false},
		{"flipped bit", 7, func() []byte { b := bytes.Clone(leaf); b[100] ^= 1; return b }(), false},
		{"another page's image", 8, leaf, false},
		{"leaf nkeys 1000", 7, resealed(leaf, 7, func(b []byte) { putU16(b[2:4], 1000) }), false},
		{"leaf nkeys one past the page", 7, resealed(leaf, 7, func(b []byte) { putU16(b[2:4], (PageSize-headerSize)/slotSize+1) }), false},
		{"inner nkeys 1000", 8, resealed(inner, 8, func(b []byte) { putU16(b[2:4], 1000) }), false},
		{"inner nkeys past capacity", 8, resealed(inner, 8, func(b []byte) { putU16(b[2:4], InnerMaxKeys+1) }), false},
		{"slot past the page end", 7, resealed(leaf, 7, func(b []byte) { putU16(b[headerSize+8:], PageSize-2) }), false},
		{"slot in the header", 7, resealed(leaf, 7, func(b []byte) { putU16(b[headerSize+8:], 4) }), false},
		{"slot over the slot array", 7, resealed(leaf, 7, func(b []byte) { putU16(b[headerSize+slotSize+8:], headerSize) }), false},
		{"values that overlap past the page", 7, resealed(leaf, 7, func(b []byte) {
			for i := range 3 {
				putU16(b[headerSize+i*slotSize+8:], PageSize-200)
				putU16(b[headerSize+i*slotSize+10:], 200)
			}
		}), false},
		{"leaf at level 1", 7, resealed(leaf, 7, func(b []byte) { b[1] = 1 }), false},
		{"inner node at level 0", 8, resealed(inner, 8, func(b []byte) { b[1] = 0 }), false},
		{"inner node with a nil child", 8, resealed(inner, 8, func(b []byte) { putU64(b[headerSize+8+innerEntry+8:], 0) }), false},
		{"meta page away from page 0", 7, resealed((&Meta{Root: 1}).Encode(), 7, func([]byte) {}), false},
		{"kind 0", 7, resealed(leaf, 7, func(b []byte) { b[0] = 0 }), false},
		{"kind 9", 7, resealed(leaf, 7, func(b []byte) { b[0] = 9 }), false},
	} {
		if got := VerifyPage(c.id, c.page); got != c.want {
			t.Errorf("%s: VerifyPage = %v, want %v", c.name, got, c.want)
		}
	}
}

// FuzzPage seals arbitrary bytes as a page and runs every reader over each
// image VerifyPage accepts: none may panic, the decoded node re-encodes,
// SearchPage must agree with DecodeNode and Node.SearchLeaf /
// ChildIndex, a delete always fits, and a leaf edit that fits must
// itself verify.
func FuzzPage(f *testing.F) {
	f.Add(uint64(7), verifyLeaf(), uint64(20))
	f.Add(uint64(8), verifyInner(), uint64(25))
	f.Add(uint64(7), resealed(verifyLeaf(), 7, func(b []byte) { putU16(b[2:4], 1000) }), uint64(20))
	f.Add(uint64(8), resealed(verifyInner(), 8, func(b []byte) { putU16(b[2:4], 1000) }), uint64(25))
	f.Add(uint64(7), resealed(verifyLeaf(), 7, func(b []byte) { putU16(b[headerSize+8:], PageSize-2) }), uint64(10))
	f.Add(uint64(7), resealed(verifyLeaf(), 7, func(b []byte) {
		for i := range 3 {
			putU16(b[headerSize+i*slotSize+8:], PageSize-200)
			putU16(b[headerSize+i*slotSize+10:], 200)
		}
	}), uint64(10))
	f.Fuzz(func(t *testing.T, id uint64, data []byte, key uint64) {
		page := make([]byte, PageSize)
		copy(page, data)
		seal(PageID(id), page)
		if !VerifyPage(PageID(id), page) {
			return
		}
		UsedExtent(page)
		n, err := DecodeNode(PageID(id), page)
		if err != nil {
			if page[0] != KindMeta {
				t.Fatalf("verified page of kind %d does not decode: %v", page[0], err)
			}
			return
		}
		n.Encode()
		step, err := SearchPage(page, key)
		if err != nil {
			t.Fatalf("SearchPage: %v", err)
		}
		if !n.IsLeaf() {
			i := n.ChildIndex(key)
			if step.Leaf || step.Index != i || step.Child != n.Children[i] {
				t.Fatalf("key %d: SearchPage %+v, ChildIndex %d child %d", key, step, i, n.Children[i])
			}
			for i := range n.Children {
				if sep, ok := InnerKey(page, i); InnerChild(page, i) != n.Children[i] || ok && sep != n.Keys[i] {
					t.Fatalf("entry %d disagrees with DecodeNode", i)
				}
			}
			return
		}
		i, found := n.SearchLeaf(key)
		if !step.Leaf || step.Found != found || found && !bytes.Equal(step.Value, n.Vals[i]) {
			t.Fatalf("key %d: SearchPage %+v, SearchLeaf %d %v", key, step, i, found)
		}
		LeafRangeShared(page, key, key+100, func(uint64, []byte) bool { return true })
		dst := make([]byte, PageSize)
		for _, del := range []bool{false, true} {
			_, fits := EditLeaf(dst, page, PageID(id), key, []byte("v"), del)
			if del && !fits {
				t.Fatalf("delete of key %d does not fit", key)
			}
			if fits && !VerifyPage(PageID(id), dst) {
				t.Fatalf("edit (del=%v) of key %d wrote a page that does not verify", del, key)
			}
		}
	})
}
