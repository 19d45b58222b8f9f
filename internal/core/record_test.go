package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/patree/patree/internal/storage"
)

// encodeRecord builds the payload journalImage hands to the log, as one
// slice.
func encodeRecord(seq uint64, idx, cnt int, id storage.PageID, image []byte) []byte {
	prefix, suffix := storage.UsedExtent(image)
	hdr := make([]byte, recordHeaderBytes)
	recordHeader(hdr, seq, idx, cnt, id, prefix, suffix)
	rec := append(hdr, image[:prefix]...)
	return append(rec, image[storage.PageSize-suffix:storage.PageSize]...)
}

// setRecord and deleteRecord build the leaf records journalBuild logs for
// an in-place change of one leaf.
func setRecord(seq uint64, id storage.PageID, key uint64, value []byte) []byte {
	hdr := make([]byte, leafHeaderBytes)
	leafHeader(hdr, seq, id, false, key)
	return append(hdr, value...)
}

func deleteRecord(seq uint64, id storage.PageID, key uint64) []byte {
	hdr := make([]byte, leafHeaderBytes)
	leafHeader(hdr, seq, id, true, key)
	return hdr
}

// legacyRecord is a record as builds before the format tag wrote it:
// an 18-byte header and the whole page.
func legacyRecord(seq uint64, idx, cnt int, id storage.PageID, image []byte) []byte {
	rec := make([]byte, 18+storage.PageSize)
	binary.LittleEndian.PutUint64(rec[0:8], seq)
	rec[8], rec[9] = byte(idx), byte(cnt)
	binary.LittleEndian.PutUint64(rec[10:18], uint64(id))
	copy(rec[18:], image)
	return rec
}

func leafOf(id storage.PageID, nkeys, valLen int) *storage.Node {
	n := storage.NewLeaf(id)
	for i := 0; i < nkeys; i++ {
		n.InsertLeaf(uint64(i)*7+1, bytes.Repeat([]byte{byte(i + 1)}, valLen))
	}
	return n
}

// cloneNode is a deep copy of n, by way of its page image.
func cloneNode(n *storage.Node) *storage.Node {
	c, err := storage.DecodeNode(n.ID, n.Encode())
	if err != nil {
		panic(err)
	}
	return c
}

func innerOf(id storage.PageID, nkeys int) *storage.Node {
	n := storage.NewInner(id, 1)
	n.Children = []storage.PageID{100}
	for i := 0; i < nkeys; i++ {
		n.InsertInner(uint64(i+1)*10, storage.PageID(101+i))
	}
	return n
}

// roundTrip checks that image survives the record codec byte for byte and
// reports the record's size.
func roundTrip(t *testing.T, name string, id storage.PageID, image []byte) int {
	t.Helper()
	rec := encodeRecord(77, 2, 5, id, image)
	r, err := decodeRecord(rec)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if r.seq != 77 || r.idx != 2 || r.cnt != 5 || r.id != id {
		t.Fatalf("%s: header came back as %+v", name, r)
	}
	if !bytes.Equal(r.image, image) {
		t.Fatalf("%s: image differs after the round trip", name)
	}
	if !storage.VerifyPage(id, r.image) {
		t.Fatalf("%s: re-inflated image fails verification", name)
	}
	return len(rec)
}

func TestRecordRoundTrip(t *testing.T) {
	// 41 slots of no value, or 4 of 112 bytes, fill a leaf to its last byte.
	fullLeaf := leafOf(9, 4, 112)
	if fullLeaf.LeafUsed() != storage.PageSize {
		t.Fatalf("full leaf uses %d bytes", fullLeaf.LeafUsed())
	}
	meta := &storage.Meta{Root: 3, Height: 2, Watermark: 40, NumKeys: 1 << 40, SyncEpoch: 9,
		WALStart: 1 << 20, WALBlocks: 8192, WALGen: 7, ShardID: 1, ShardCount: 4, DeviceID: 1, DeviceCount: 2}
	cases := []struct {
		name  string
		id    storage.PageID
		image []byte
		size  int // expected record bytes
	}{
		{"empty leaf", 5, storage.NewLeaf(5).Encode(), recordHeaderBytes + 16},
		{"one max value", 6, leafOf(6, 1, storage.MaxValueSize).Encode(), recordHeaderBytes + 16 + 12 + storage.MaxValueSize},
		{"two max values", 7, leafOf(7, 2, storage.MaxValueSize).Encode(), recordHeaderBytes + storage.PageSize},
		{"zero-length values", 8, leafOf(8, 41, 0).Encode(), recordHeaderBytes + 16 + 41*12},
		{"full leaf, no hole", 9, fullLeaf.Encode(), recordHeaderBytes + storage.PageSize},
		{"typical leaf", 10, leafOf(10, 3, 100).Encode(), recordHeaderBytes + 16 + 3*(12+100)},
		{"inner, no keys", 11, innerOf(11, 0).Encode(), recordHeaderBytes + 24},
		{"inner, full", 12, innerOf(12, storage.InnerMaxKeys).Encode(), recordHeaderBytes + 24 + 16*storage.InnerMaxKeys},
		{"meta", 0, meta.Encode(), recordHeaderBytes + 84},
	}
	for _, c := range cases {
		if got := roundTrip(t, c.name, c.id, c.image); got != c.size {
			t.Errorf("%s: record is %d bytes, want %d", c.name, got, c.size)
		}
	}
	if recordHeaderBytes+storage.PageSize != maxRecordBytes {
		t.Fatal("maxRecordBytes is not a page with no hole")
	}
}

// TestLeafRecordRoundTrip: a leaf record is 27 bytes plus the value, and
// comes back as the key, the value and whether it deletes.
func TestLeafRecordRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name  string
		rec   []byte
		value []byte
		del   bool
	}{
		{"set", setRecord(9, 5, 1<<60+3, []byte("value")), []byte("value"), false},
		{"set, empty value", setRecord(9, 5, 1<<60+3, nil), []byte{}, false},
		{"set, max value", setRecord(9, 5, 1<<60+3, bytes.Repeat([]byte{7}, storage.MaxValueSize)), bytes.Repeat([]byte{7}, storage.MaxValueSize), false},
		{"delete", deleteRecord(9, 5, 1<<60+3), []byte{}, true},
	} {
		if len(c.rec) != 27+len(c.value) {
			t.Errorf("%s: %d bytes, want 27 + %d", c.name, len(c.rec), len(c.value))
		}
		r, err := decodeRecord(c.rec)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if r.seq != 9 || r.idx != 0 || r.cnt != 1 || r.id != 5 || r.key != 1<<60+3 || r.del != c.del || r.image != nil || !bytes.Equal(r.value, c.value) {
			t.Errorf("%s: came back as %+v", c.name, r)
		}
	}
}

// TestApplyLeafRecords: leaf records fold last-wins onto any state of the
// page between the one the log starts from and the newest, and a delete
// of a key the page lacks changes nothing.
func TestApplyLeafRecords(t *testing.T) {
	start := leafOf(5, 3, 100) // keys 1, 8, 15
	recs := []redoRecord{
		{id: 5, key: 8, value: []byte("a")},
		{id: 5, key: 4, value: []byte("b")},
		{id: 5, key: 8, value: []byte("c")},
		{id: 5, key: 1, del: true},
		{id: 5, key: 99, del: true},
	}
	want := cloneNode(start)
	want.InsertLeaf(8, []byte("c"))
	want.InsertLeaf(4, []byte("b"))
	want.DeleteLeafAt(0)
	state := cloneNode(start)
	for i := 0; i <= len(recs); i++ {
		got, err := applyLeafRecords(5, state.Encode(), recs)
		if err != nil {
			t.Fatalf("base after %d records: %v", i, err)
		}
		if !bytes.Equal(got, want.Encode()) {
			t.Fatalf("base after %d records folds to a different page", i)
		}
		if i < len(recs) {
			if r := recs[i]; !r.del {
				state.InsertLeaf(r.key, r.value)
			} else if j, ok := state.SearchLeaf(r.key); ok {
				state.DeleteLeafAt(j)
			}
		}
	}
	if _, err := applyLeafRecords(6, innerOf(6, 2).Encode(), recs); !errors.Is(err, storage.ErrBadKind) {
		t.Errorf("leaf records folded onto an inner page: err = %v, want ErrBadKind", err)
	}
	big := []redoRecord{{id: 5, key: 2, value: make([]byte, storage.MaxValueSize)}, {id: 5, key: 3, value: make([]byte, storage.MaxValueSize)}}
	if _, err := applyLeafRecords(5, start.Encode(), big); err == nil {
		t.Error("a fold that overflows the page was accepted")
	}

	// Two maximal values and one more key never share a page, yet each
	// fold below ends on a page that fits, through a state that does not
	// when the records are applied one by one in log order.
	maxVal := func(b byte) []byte { return bytes.Repeat([]byte{b}, storage.MaxValueSize) }
	leaf := func(pairs ...any) []byte {
		n := storage.NewLeaf(5)
		for i := 0; i < len(pairs); i += 2 {
			n.InsertLeaf(uint64(pairs[i].(int)), pairs[i+1].([]byte))
		}
		return n.Encode()
	}
	for _, c := range []struct {
		name       string
		base, want []byte
		recs       []redoRecord
	}{
		// The image was written back after the last record: re-applying
		// the first would add a to b.
		{"late image", leaf(1, []byte{}, 3, maxVal('b')), leaf(1, []byte{}, 3, maxVal('c')), []redoRecord{
			{id: 5, key: 2, value: maxVal('a')}, {id: 5, key: 2, del: true}, {id: 5, key: 3, value: maxVal('c')}}},
		// a's last record comes before b's, which makes room for it.
		{"room made later", leaf(1, []byte{}, 3, maxVal('b')), leaf(1, []byte{}, 2, maxVal('a'), 3, []byte("t")), []redoRecord{
			{id: 5, key: 3, value: []byte("s")}, {id: 5, key: 2, value: maxVal('a')}, {id: 5, key: 3, value: []byte("t")}}},
	} {
		got, err := applyLeafRecords(5, c.base, c.recs)
		if err != nil || !bytes.Equal(got, c.want) {
			t.Errorf("%s: fold = %v, or a different page", c.name, err)
		}
	}
}

// TestRecordRoundTripProperty: whatever node storage can encode comes
// back from its record as the identical page.
func TestRecordRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		var n *storage.Node
		if rng.Intn(4) == 0 {
			n = innerOf(storage.PageID(i+1), rng.Intn(storage.InnerMaxKeys+1))
		} else {
			n = storage.NewLeaf(storage.PageID(i + 1))
			for k := uint64(1); ; k++ {
				v := make([]byte, rng.Intn(storage.MaxValueSize+1))
				rng.Read(v)
				if !n.LeafFits(len(v)) || rng.Intn(12) == 0 {
					break
				}
				n.InsertLeaf(k*3, v)
			}
			n.Next = storage.PageID(rng.Uint64())
		}
		roundTrip(t, "random node", n.ID, n.Encode())
	}
}

func TestRecordFormatRefused(t *testing.T) {
	image := leafOf(5, 3, 100).Encode()
	good := encodeRecord(1, 0, 1, 5, image)
	bad := map[string][]byte{
		"legacy":          legacyRecord(1, 0, 1, 5, image),
		"unknown tag":     append(append([]byte(nil), good[:18]...), append([]byte{0xC4}, good[19:]...)...),
		"short":           good[:recordHeaderBytes-1],
		"short leaf":      setRecord(1, 5, 7, nil)[:leafHeaderBytes-1],
		"delete, value":   append(deleteRecord(1, 5, 7), 0),
		"set, over limit": setRecord(1, 5, 7, make([]byte, storage.MaxValueSize+1)),
		"truncated":       good[:len(good)-1],
		"trailing byte":   append(append([]byte(nil), good...), 0),
		"extent > page": func() []byte {
			r := append([]byte(nil), good...)
			r[19], r[20] = 0xFF, 0x01
			return r
		}(),
	}
	for name, rec := range bad {
		if _, err := decodeRecord(rec); !errors.Is(err, ErrJournalFormat) {
			t.Errorf("%s: err = %v, want ErrJournalFormat", name, err)
		}
	}
}

// FuzzJournalRecord: arbitrary bytes never panic the decoder, a record
// recovery accepts for redo as an image carries one that passes
// storage.VerifyPage, and one it accepts as a leaf record folds onto a
// leaf into the page the Node path gives (decode, InsertLeaf or
// DeleteLeafAt, encode), or is refused exactly when that page would
// overflow.
func FuzzJournalRecord(f *testing.F) {
	leafNode := leafOf(5, 3, 100) // keys 1, 8, 15; 160 bytes free
	leaf := leafNode.Encode()
	f.Add(encodeRecord(1, 0, 1, 5, leaf))
	f.Add(encodeRecord(2, 0, 1, 6, innerOf(6, 4).Encode()))
	f.Add(encodeRecord(3, 0, 1, 0, (&storage.Meta{Root: 1, Height: 1, Watermark: 2}).Encode()))
	f.Add(encodeRecord(4, 0, 2, 5, leaf)) // first half of a group
	f.Add(legacyRecord(5, 0, 1, 5, leaf))
	torn := encodeRecord(6, 0, 1, 5, leaf)
	torn[len(torn)-1] ^= 0x40
	f.Add(torn)
	f.Add([]byte{})
	f.Add(setRecord(7, 5, 8, []byte("new value")))
	f.Add(setRecord(8, 5, 2, bytes.Repeat([]byte{1}, storage.MaxValueSize)))
	f.Add(deleteRecord(9, 5, 15))
	f.Add(deleteRecord(10, 5, 16))
	// Folds at every place in the slot array, with empty, growing and
	// overflowing values.
	f.Add(setRecord(11, 5, 0, nil))
	f.Add(setRecord(12, 5, 1<<63, []byte("last")))
	f.Add(setRecord(13, 5, 8, bytes.Repeat([]byte{2}, storage.MaxValueSize)))
	f.Add(setRecord(14, 5, 9, bytes.Repeat([]byte{3}, 148)))
	f.Add(setRecord(15, 5, 9, bytes.Repeat([]byte{3}, 149)))
	f.Add(deleteRecord(16, 5, 1))
	f.Fuzz(func(t *testing.T, rec []byte) {
		redo, err := parseRedo([][]byte{rec}, &RecoverReport{})
		if err != nil {
			return
		}
		for _, p := range redo {
			if p.image != nil {
				if len(p.image) != storage.PageSize || !storage.VerifyPage(p.id, p.image) {
					t.Fatalf("accepted for redo: page %d with an image that does not verify", p.id)
				}
				continue
			}
			want := cloneNode(leafNode)
			want.ID = p.id
			if i, found := want.SearchLeaf(p.key); p.del && found {
				want.DeleteLeafAt(i)
			} else if !p.del {
				want.InsertLeaf(p.key, p.value)
			}
			page, err := applyLeafRecords(p.id, leaf, []redoRecord{p})
			switch fits := want.LeafUsed() <= storage.PageSize; {
			case fits && err != nil:
				t.Fatalf("leaf record %+v refused: %v", p, err)
			case fits && !bytes.Equal(page, want.Encode()):
				t.Fatalf("leaf record %+v folds to another page than the Node path", p)
			case !fits && err == nil:
				t.Fatalf("leaf record %+v overflows the page, yet folded", p)
			}
		}
	})
}
