package storage

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

func TestLeafEncodeDecodeRoundTrip(t *testing.T) {
	n := NewLeaf(5)
	n.Next = 9
	n.InsertLeaf(30, []byte("thirty"))
	n.InsertLeaf(10, []byte("ten"))
	n.InsertLeaf(20, []byte{})
	buf := n.Encode()
	got, err := DecodeNode(5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsLeaf() || got.Next != 9 || got.NumKeys() != 3 {
		t.Fatalf("decoded = %+v", got)
	}
	wantKeys := []uint64{10, 20, 30}
	wantVals := [][]byte{[]byte("ten"), {}, []byte("thirty")}
	for i := range wantKeys {
		if got.Keys[i] != wantKeys[i] || !bytes.Equal(got.Vals[i], wantVals[i]) {
			t.Fatalf("entry %d = (%d, %q)", i, got.Keys[i], got.Vals[i])
		}
	}
}

func TestInnerEncodeDecodeRoundTrip(t *testing.T) {
	n := NewInner(7, 2)
	n.Children = []PageID{100}
	n.InsertInner(50, 101)
	n.InsertInner(25, 102)
	n.InsertInner(75, 103)
	buf := n.Encode()
	got, err := DecodeNode(7, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.IsLeaf() || got.Level != 2 {
		t.Fatalf("decoded = %+v", got)
	}
	wantKeys := []uint64{25, 50, 75}
	wantChildren := []PageID{100, 102, 101, 103}
	for i := range wantKeys {
		if got.Keys[i] != wantKeys[i] {
			t.Fatalf("keys = %v", got.Keys)
		}
	}
	for i := range wantChildren {
		if got.Children[i] != wantChildren[i] {
			t.Fatalf("children = %v", got.Children)
		}
	}
}

// TestDecodeRejectsCorruption: a page of no tree kind is the one page
// DecodeNode refuses, and VerifyPage refuses it first.
func TestDecodeRejectsCorruption(t *testing.T) {
	n := NewLeaf(1)
	n.InsertLeaf(1, []byte("x"))
	buf := n.Encode()
	buf[0] = 9
	seal(1, buf)
	if VerifyPage(1, buf) {
		t.Fatal("kind 9 verifies")
	}
	if _, err := DecodeNode(1, buf); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestSearchLeaf(t *testing.T) {
	n := NewLeaf(1)
	for _, k := range []uint64{10, 20, 30, 40} {
		n.InsertLeaf(k, []byte("v"))
	}
	if i, ok := n.SearchLeaf(30); !ok || i != 2 {
		t.Fatalf("SearchLeaf(30) = %d,%v", i, ok)
	}
	if i, ok := n.SearchLeaf(35); ok || i != 3 {
		t.Fatalf("SearchLeaf(35) = %d,%v", i, ok)
	}
	if i, ok := n.SearchLeaf(5); ok || i != 0 {
		t.Fatalf("SearchLeaf(5) = %d,%v", i, ok)
	}
	if i, ok := n.SearchLeaf(45); ok || i != 4 {
		t.Fatalf("SearchLeaf(45) = %d,%v", i, ok)
	}
}

func TestChildIndex(t *testing.T) {
	n := NewInner(1, 1)
	n.Keys = []uint64{10, 20, 30}
	n.Children = []PageID{1, 2, 3, 4}
	cases := []struct {
		key  uint64
		want int
	}{{5, 0}, {10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {99, 3}}
	for _, c := range cases {
		if got := n.ChildIndex(c.key); got != c.want {
			t.Fatalf("ChildIndex(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestInsertLeafReplace(t *testing.T) {
	n := NewLeaf(1)
	if n.InsertLeaf(1, []byte("a")) {
		t.Fatal("fresh insert reported replace")
	}
	if !n.InsertLeaf(1, []byte("b")) {
		t.Fatal("overwrite not reported as replace")
	}
	if n.NumKeys() != 1 || string(n.Vals[0]) != "b" {
		t.Fatalf("node = %+v", n)
	}
}

func TestInsertLeafCopiesValue(t *testing.T) {
	n := NewLeaf(1)
	v := []byte("abc")
	n.InsertLeaf(1, v)
	v[0] = 'X'
	if string(n.Vals[0]) != "abc" {
		t.Fatal("InsertLeaf aliased caller's buffer")
	}
}

func TestDeleteLeafAt(t *testing.T) {
	n := NewLeaf(1)
	for _, k := range []uint64{1, 2, 3} {
		n.InsertLeaf(k, []byte{byte(k)})
	}
	n.DeleteLeafAt(1)
	if n.NumKeys() != 2 || n.Keys[0] != 1 || n.Keys[1] != 3 {
		t.Fatalf("keys = %v", n.Keys)
	}
	if n.Vals[1][0] != 3 {
		t.Fatal("values out of sync with keys")
	}
}

func TestLeafCapacityAccounting(t *testing.T) {
	n := NewLeaf(1)
	// 8-byte values: each entry costs 12+8=20; capacity (512-16)/20 = 24.
	count := 0
	for n.LeafFits(8) {
		n.InsertLeaf(uint64(count), make([]byte, 8))
		count++
	}
	if count != 24 {
		t.Fatalf("fixed 8B-value capacity = %d, want 24", count)
	}
	// Encode must succeed at exactly full.
	n.Encode()
}

func TestLeafFitsReplace(t *testing.T) {
	n := NewLeaf(1)
	n.InsertLeaf(1, make([]byte, 400))
	if !n.LeafFitsReplace(0, 480) {
		t.Fatal("replace to 480 should fit")
	}
	if n.LeafFitsReplace(0, 500) {
		t.Fatal("replace to 500 cannot fit")
	}
}

func TestSplitLeafBalancesAndChains(t *testing.T) {
	n := NewLeaf(1)
	n.Next = 99
	for i := 0; i < 20; i++ {
		n.InsertLeaf(uint64(i), make([]byte, 8))
	}
	sep, right := n.SplitLeaf(2)
	if sep != right.Keys[0] {
		t.Fatalf("separator %d != right first key %d", sep, right.Keys[0])
	}
	if n.Next != 2 || right.Next != 99 {
		t.Fatalf("sibling chain: left.Next=%d right.Next=%d", n.Next, right.Next)
	}
	if n.NumKeys() == 0 || right.NumKeys() == 0 {
		t.Fatal("split produced an empty side")
	}
	if n.Keys[len(n.Keys)-1] >= right.Keys[0] {
		t.Fatal("split did not preserve order")
	}
	if n.NumKeys()+right.NumKeys() != 20 {
		t.Fatal("split lost entries")
	}
}

func TestSplitLeafVariableSizes(t *testing.T) {
	// One huge value followed by small ones: byte-based split must not
	// put everything on one side.
	n := NewLeaf(1)
	n.InsertLeaf(1, make([]byte, 300))
	for i := 2; i <= 10; i++ {
		n.InsertLeaf(uint64(i), make([]byte, 8))
	}
	_, right := n.SplitLeaf(2)
	if n.NumKeys() == 0 || right.NumKeys() == 0 {
		t.Fatal("degenerate split")
	}
	// Left should hold just the big value (300 bytes ~ half of page).
	if n.NumKeys() > 3 {
		t.Fatalf("left kept %d keys despite byte-weighted split", n.NumKeys())
	}
}

func TestSplitInner(t *testing.T) {
	n := NewInner(1, 1)
	n.Children = []PageID{100}
	for i := 1; i <= InnerMaxKeys; i++ {
		n.InsertInner(uint64(i*10), PageID(100+i))
	}
	sep, right := n.SplitInner(2)
	if n.NumKeys()+right.NumKeys()+1 != InnerMaxKeys {
		t.Fatalf("keys %d + %d + sep != %d", n.NumKeys(), right.NumKeys(), InnerMaxKeys)
	}
	if len(n.Children) != n.NumKeys()+1 || len(right.Children) != right.NumKeys()+1 {
		t.Fatal("children counts wrong after split")
	}
	if n.Keys[len(n.Keys)-1] >= sep || right.Keys[0] <= sep {
		t.Fatal("separator does not divide key ranges")
	}
	// Round-trip both halves.
	if _, err := DecodeNode(1, n.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeNode(2, right.Encode()); err != nil {
		t.Fatal(err)
	}
}

// Property: any set of (key, value) pairs that fits a leaf round-trips
// through encode/decode preserving sorted order and content.
func TestLeafRoundTripProperty(t *testing.T) {
	f := func(keys []uint64, blob []byte) bool {
		n := NewLeaf(3)
		inserted := map[uint64][]byte{}
		bi := 0
		for _, k := range keys {
			vlen := 0
			if len(blob) > 0 {
				vlen = int(k % 40)
			}
			if bi+vlen > len(blob) {
				bi = 0
			}
			var v []byte
			if vlen > 0 && bi+vlen <= len(blob) {
				v = blob[bi : bi+vlen]
				bi += vlen
			}
			if _, found := n.SearchLeaf(k); !found && !n.LeafFits(len(v)) {
				continue
			}
			if i, found := n.SearchLeaf(k); found && !n.LeafFitsReplace(i, len(v)) {
				continue
			}
			n.InsertLeaf(k, v)
			inserted[k] = append([]byte(nil), v...)
		}
		got, err := DecodeNode(3, n.Encode())
		if err != nil {
			return false
		}
		if got.NumKeys() != len(inserted) {
			return false
		}
		if !sort.SliceIsSorted(got.Keys, func(i, j int) bool { return got.Keys[i] < got.Keys[j] }) {
			return false
		}
		for i, k := range got.Keys {
			want, ok := inserted[k]
			if !ok || !bytes.Equal(got.Vals[i], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: inner nodes round-trip for any key count within capacity.
func TestInnerRoundTripProperty(t *testing.T) {
	f := func(seed uint64, count uint8) bool {
		nkeys := int(count) % (InnerMaxKeys + 1)
		n := NewInner(4, 1)
		n.Children = []PageID{PageID(seed | 1)}
		for i := 0; i < nkeys; i++ {
			n.Keys = append(n.Keys, seed+uint64(i)*7919)
			n.Children = append(n.Children, PageID(seed+uint64(i)+2))
		}
		sort.Slice(n.Keys, func(i, j int) bool { return n.Keys[i] < n.Keys[j] })
		got, err := DecodeNode(4, n.Encode())
		if err != nil {
			return false
		}
		if got.NumKeys() != nkeys || len(got.Children) != nkeys+1 {
			return false
		}
		for i := range n.Keys {
			if got.Keys[i] != n.Keys[i] || got.Children[i+1] != n.Children[i+1] {
				return false
			}
		}
		return got.Children[0] == n.Children[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	m := &Meta{Root: 17, Height: 3, Watermark: 1234, NumKeys: 99999, SyncEpoch: 7}
	got, err := DecodeMeta(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("meta = %+v, want %+v", got, m)
	}
}

func TestMetaRejectsGarbage(t *testing.T) {
	buf := make([]byte, PageSize)
	if _, err := DecodeMeta(buf); err == nil {
		t.Fatal("zero page accepted as meta")
	}
	n := NewLeaf(0)
	if _, err := DecodeMeta(n.Encode()); err != ErrNotMeta {
		t.Fatalf("leaf page as meta: err = %v", err)
	}
	m := &Meta{Root: 1}
	buf = m.Encode()
	buf[20] ^= 1
	if _, err := DecodeMeta(buf); err != ErrCorruptPage {
		t.Fatalf("corrupt meta: err = %v", err)
	}
}

func TestAllocator(t *testing.T) {
	a := NewAllocator(1)
	p1, p2 := a.Alloc(), a.Alloc()
	if p1 != 1 || p2 != 2 {
		t.Fatalf("alloc = %d, %d", p1, p2)
	}
	a.Free(p1)
	if a.FreeCount() != 1 {
		t.Fatal("free count wrong")
	}
	if got := a.Alloc(); got != p1 {
		t.Fatalf("recycled = %d, want %d", got, p1)
	}
	if a.Watermark() != 3 {
		t.Fatalf("watermark = %d", a.Watermark())
	}
}

func TestAllocatorPanicsOnBadFree(t *testing.T) {
	a := NewAllocator(5)
	for _, id := range []PageID{0, 5, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Free(%d) did not panic", id)
				}
			}()
			a.Free(id)
		}()
	}
}

func TestAllocatorZeroWatermarkClamped(t *testing.T) {
	a := NewAllocator(0)
	if got := a.Alloc(); got != 1 {
		t.Fatalf("first alloc = %d, want 1 (page 0 reserved for meta)", got)
	}
}

// Property: allocator never hands out duplicates among live pages.
func TestAllocatorNoDuplicatesProperty(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewAllocator(1)
		live := map[PageID]bool{}
		var order []PageID
		for _, alloc := range ops {
			if alloc || len(order) == 0 {
				id := a.Alloc()
				if live[id] {
					return false
				}
				live[id] = true
				order = append(order, id)
			} else {
				id := order[len(order)-1]
				order = order[:len(order)-1]
				delete(live, id)
				a.Free(id)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxValueFitsFreshLeaf(t *testing.T) {
	n := NewLeaf(1)
	if !n.LeafFits(MaxValueSize) {
		t.Fatal("MaxValueSize does not fit an empty leaf")
	}
	n.InsertLeaf(1, make([]byte, MaxValueSize))
	got, err := DecodeNode(1, n.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vals[0]) != MaxValueSize {
		t.Fatal("max value truncated")
	}
}
