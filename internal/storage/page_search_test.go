package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestSearchPageMatchesDecodedLeaf pins the fast path to the decoded
// semantics: for random leaves and probe keys, SearchPage must agree
// with DecodeNode + SearchLeaf on presence and value.
func TestSearchPageMatchesDecodedLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := NewLeaf(7)
		nkeys := rng.Intn(20)
		key := uint64(rng.Intn(50))
		for i := 0; i < nkeys; i++ {
			key += uint64(1 + rng.Intn(10))
			v := make([]byte, rng.Intn(12))
			rng.Read(v)
			if !n.LeafFits(len(v)) {
				break
			}
			n.InsertLeaf(key, v)
		}
		buf := n.Encode()
		dec, err := DecodeNode(7, buf)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 30; probe++ {
			k := uint64(rng.Intn(int(key + 10)))
			step, err := SearchPage(buf, k)
			if err != nil {
				t.Fatalf("SearchPage(%d): %v", k, err)
			}
			if !step.Leaf {
				t.Fatalf("leaf page reported as inner")
			}
			i, found := dec.SearchLeaf(k)
			if step.Found != found {
				t.Fatalf("key %d: SearchPage found=%v, SearchLeaf found=%v", k, step.Found, found)
			}
			if found && !bytes.Equal(step.Value, dec.Vals[i]) {
				t.Fatalf("key %d: value %x, want %x", k, step.Value, dec.Vals[i])
			}
		}
	}
}

// TestSearchPageMatchesDecodedInner does the same for inner pages and
// ChildIndex, and holds the sealed inner-page accessors to Node's fields.
func TestSearchPageMatchesDecodedInner(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := NewInner(9, 1)
		nkeys := 1 + rng.Intn(InnerMaxKeys)
		n.Children = append(n.Children, PageID(1000))
		key := uint64(rng.Intn(50))
		for i := 0; i < nkeys; i++ {
			key += uint64(1 + rng.Intn(10))
			n.Keys = append(n.Keys, key)
			n.Children = append(n.Children, PageID(1001+i))
		}
		buf := n.Encode()
		dec, err := DecodeNode(9, buf)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 30; probe++ {
			k := uint64(rng.Intn(int(key + 10)))
			step, err := SearchPage(buf, k)
			if err != nil {
				t.Fatalf("SearchPage(%d): %v", k, err)
			}
			if step.Leaf {
				t.Fatalf("inner page reported as leaf")
			}
			want := dec.Children[dec.ChildIndex(k)]
			if step.Child != want || step.Index != dec.ChildIndex(k) {
				t.Fatalf("key %d: child %d at %d, want %d at %d", k, step.Child, step.Index, want, dec.ChildIndex(k))
			}
		}
		// The accessors read the same layout.
		for i := range dec.Children {
			sep, ok := InnerKey(buf, i)
			if InnerChild(buf, i) != dec.Children[i] || ok != (i < len(dec.Keys)) || ok && sep != dec.Keys[i] {
				t.Fatalf("entry %d: child %d, separator %d (%v); want %v", i, InnerChild(buf, i), sep, ok, dec)
			}
		}
		if PageLevel(buf) != 1 {
			t.Fatalf("level %d, want 1", PageLevel(buf))
		}
	}
}

// TestEditLeafMatchesNode pins the leaf edit to the Node path it
// replaces: over random leaves, values of every size up to MaxValueSize
// and keys present and absent, EditLeaf reports presence as SearchLeaf
// does, refuses exactly the sets LeafFits / LeafFitsReplace refuse (and
// then writes nothing), and otherwise writes byte for byte what
// DecodeNode, InsertLeaf or DeleteLeafAt and EncodeTo produce. Its source
// is never written.
func TestEditLeafMatchesNode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var seen [2][2][2]int // [del][found][fits]
	for trial := 0; trial < 4000; trial++ {
		n := NewLeaf(7)
		n.Next = PageID(rng.Intn(3))
		maxLen := []int{0, 8, 40, MaxValueSize}[rng.Intn(4)]
		key := uint64(rng.Intn(8))
		for rng.Intn(24) != 0 {
			v := make([]byte, rng.Intn(maxLen+1))
			if !n.LeafFits(len(v)) {
				break
			}
			rng.Read(v)
			n.InsertLeaf(key, v)
			key += uint64(1 + rng.Intn(3))
		}
		src := n.Encode()
		orig := append([]byte(nil), src...)
		k := uint64(rng.Intn(int(key) + 2))
		value := make([]byte, rng.Intn(MaxValueSize+1))
		rng.Read(value)
		del := rng.Intn(3) == 0

		want, err := DecodeNode(7, src)
		if err != nil {
			t.Fatal(err)
		}
		i, wantFound := want.SearchLeaf(k)
		wantFits := true
		switch {
		case del && wantFound:
			want.DeleteLeafAt(i)
		case del:
		case wantFound:
			wantFits = want.LeafFitsReplace(i, len(value))
		default:
			wantFits = want.LeafFits(len(value))
		}
		if !del && wantFits {
			want.InsertLeaf(k, value)
		}

		dst := bytes.Repeat([]byte{0xA5}, PageSize)
		found, fits := EditLeaf(dst, src, 7, k, value, del)
		if found != wantFound || fits != wantFits {
			t.Fatalf("trial %d (del=%v, key %d, %d-byte value): found=%v fits=%v, want %v %v",
				trial, del, k, len(value), found, fits, wantFound, wantFits)
		}
		wantImg := bytes.Repeat([]byte{0xA5}, PageSize)
		if fits {
			wantImg = want.Encode()
		}
		if !bytes.Equal(dst, wantImg) {
			t.Fatalf("trial %d (del=%v, key %d, found=%v, fits=%v): image differs from the Node path", trial, del, k, found, fits)
		}
		if !bytes.Equal(src, orig) {
			t.Fatalf("trial %d: EditLeaf wrote its source", trial)
		}
		b := func(v bool) int {
			if v {
				return 1
			}
			return 0
		}
		seen[b(del)][b(found)][b(fits)]++
	}
	for _, c := range []struct {
		name           string
		del, fnd, fits int
	}{{"set of a present key", 0, 1, 1}, {"set of an absent key", 0, 0, 1},
		{"replace that does not fit", 0, 1, 0}, {"insert that does not fit", 0, 0, 0},
		{"delete of a present key", 1, 1, 1}, {"delete of an absent key", 1, 0, 1}} {
		if seen[c.del][c.fnd][c.fits] < 20 {
			t.Errorf("only %d trials covered a %s", seen[c.del][c.fnd][c.fits], c.name)
		}
	}
}

// TestSearchPageErrors: a verified page that is not a tree node (the
// meta page) is the one page SearchPage refuses; every other bad page is
// VerifyPage's to refuse (TestVerifyPageRefusesShapes).
func TestSearchPageErrors(t *testing.T) {
	meta := (&Meta{Root: 1}).Encode()
	if !VerifyPage(NilPage, meta) {
		t.Fatal("meta page does not verify")
	}
	if _, err := SearchPage(meta, 5); !errors.Is(err, ErrBadKind) {
		t.Fatalf("meta page: err = %v, want ErrBadKind", err)
	}
}

// BenchmarkSearchPage documents why the fast path exists: stepping a
// lookup without decoding allocates only the value copy, where
// DecodeNode materializes every key and value.
func BenchmarkSearchPage(b *testing.B) {
	n := NewLeaf(1)
	// 12 entries is the most a 512-byte page holds at this value size.
	for k := uint64(0); k < 12; k++ {
		n.InsertLeaf(k*3, []byte("0123456789abcdef"))
	}
	buf := n.Encode()
	b.Run("searchpage", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SearchPage(buf, 30); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nd, err := DecodeNode(1, buf)
			if err != nil {
				b.Fatal(err)
			}
			nd.SearchLeaf(30)
		}
	})
	// The same pair for a mutation: one leaf edit against the decode,
	// replace and re-encode it stands for.
	val := []byte("fedcba9876543210")
	dst := make([]byte, PageSize)
	b.Run("editleaf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EditLeaf(dst, buf, 1, 30, val, false)
		}
	})
	b.Run("decode-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nd, err := DecodeNode(1, buf)
			if err != nil {
				b.Fatal(err)
			}
			nd.InsertLeaf(30, val)
			nd.EncodeTo(dst)
		}
	})
}
