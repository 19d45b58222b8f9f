package wal

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// memRegion collects block writes into a flat region image.
type memRegion struct {
	blockSize int
	blocks    map[uint64][]byte
	writes    int
}

func newMemRegion(blockSize int) *memRegion {
	return &memRegion{blockSize: blockSize, blocks: map[uint64][]byte{}}
}

func (m *memRegion) write(idx uint64, data []byte) {
	b := make([]byte, m.blockSize)
	copy(b, data)
	m.blocks[idx] = b
	m.writes++
}

func (m *memRegion) image(capBlocks uint64) []byte {
	out := make([]byte, int(capBlocks)*m.blockSize)
	for i, b := range m.blocks {
		copy(out[int(i)*m.blockSize:], b)
	}
	return out
}

func TestAppendFlushRecover(t *testing.T) {
	l := NewLog(512, 16)
	r := newMemRegion(512)
	var want [][]byte
	for i := 0; i < 10; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, rec)
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	l.Flush(r.write)
	got, gen := Recover(r.image(16))
	if gen != 1 {
		t.Fatalf("gen = %d", gen)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFlushIsIncremental(t *testing.T) {
	l := NewLog(512, 64)
	r := newMemRegion(512)
	big := make([]byte, 1200) // spans 3 blocks
	for i := range big {
		big[i] = byte(i)
	}
	l.Append(big)
	l.Flush(r.write)
	w1 := r.writes
	if w1 < 3 {
		t.Fatalf("first flush wrote %d blocks, want >= 3", w1)
	}
	// A tiny record lands in the partial tail block: exactly one rewrite.
	l.Append([]byte("x"))
	l.Flush(r.write)
	if r.writes != w1+1 {
		t.Fatalf("second flush wrote %d blocks, want 1", r.writes-w1)
	}
	got, _ := Recover(r.image(64))
	if len(got) != 2 || !bytes.Equal(got[0], big) || string(got[1]) != "x" {
		t.Fatalf("recovered %d records", len(got))
	}
}

func TestFlushEmptyNoWrites(t *testing.T) {
	l := NewLog(512, 4)
	r := newMemRegion(512)
	l.Flush(r.write)
	if r.writes != 0 {
		t.Fatal("empty flush wrote blocks")
	}
}

func TestRecoverStopsAtTornTail(t *testing.T) {
	l := NewLog(512, 8)
	r := newMemRegion(512)
	l.Append([]byte("good-1"))
	l.Append([]byte("good-2"))
	l.Flush(r.write)
	img := r.image(8)
	// Corrupt the second record's payload byte.
	img[headerBytes+6+headerBytes] ^= 0xFF
	got, _ := Recover(img)
	if len(got) != 1 || string(got[0]) != "good-1" {
		t.Fatalf("recovered %d records: %q", len(got), got)
	}
}

func TestResetBumpsGenerationAndDropsOldFrames(t *testing.T) {
	l := NewLog(512, 8)
	r := newMemRegion(512)
	l.Append([]byte("old-1"))
	l.Append([]byte("old-2"))
	l.Flush(r.write)
	l.Reset(r.write)
	if l.Generation() != 2 || l.NextLSN() != 0 {
		t.Fatalf("gen=%d lsn=%d", l.Generation(), l.NextLSN())
	}
	// Nothing written since reset: recovery finds nothing.
	got, _ := Recover(r.image(8))
	if len(got) != 0 {
		t.Fatalf("recovered %d stale records", len(got))
	}
	l.Append([]byte("new-1"))
	l.Flush(r.write)
	got, gen := Recover(r.image(8))
	if gen != 2 || len(got) != 1 || string(got[0]) != "new-1" {
		t.Fatalf("gen=%d records=%q", gen, got)
	}
}

func TestGenerationBoundaryStopsScan(t *testing.T) {
	// New gen writes fewer bytes than old gen: recovery of the new image
	// must not continue into leftover old-gen frames.
	l := NewLog(512, 8)
	r := newMemRegion(512)
	for i := 0; i < 30; i++ {
		l.Append([]byte(fmt.Sprintf("old-%d-padddddddddddding", i)))
	}
	l.Flush(r.write)
	l.Reset(r.write)
	l.Append([]byte("fresh"))
	l.Flush(r.write)
	got, gen := Recover(r.image(8))
	if gen != 2 || len(got) != 1 {
		t.Fatalf("gen=%d n=%d (stale frames resurrected?)", gen, len(got))
	}
}

func TestLogFull(t *testing.T) {
	l := NewLog(512, 1)
	if _, err := l.Append(make([]byte, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(make([]byte, 200)); err != ErrLogFull {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
}

func TestEmptyRecordRejected(t *testing.T) {
	l := NewLog(512, 4)
	if _, err := l.Append(nil); err != ErrRecordEmpty {
		t.Fatalf("err = %v", err)
	}
}

func TestRecoverEmptyRegion(t *testing.T) {
	got, gen := Recover(make([]byte, 4096))
	if len(got) != 0 || gen != 0 {
		t.Fatal("recovered records from zero region")
	}
	got, _ = Recover(nil)
	if len(got) != 0 {
		t.Fatal("recovered from nil region")
	}
}

// Property: any sequence of appends with interleaved flushes recovers to
// exactly the appended records, in order.
func TestWALRoundTripProperty(t *testing.T) {
	f := func(recs [][]byte, flushPattern []bool) bool {
		l := NewLog(512, 1024)
		r := newMemRegion(512)
		var want [][]byte
		for i, rec := range recs {
			if len(rec) == 0 {
				rec = []byte{0}
			}
			if len(rec) > 4000 {
				rec = rec[:4000]
			}
			if _, err := l.Append(rec); err != nil {
				return false
			}
			want = append(want, append([]byte(nil), rec...))
			if i < len(flushPattern) && flushPattern[i] {
				l.Flush(r.write)
			}
		}
		l.Flush(r.write)
		got, _ := Recover(r.image(1024))
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendPartsFramesLikeOneSlice: a record handed over in pieces is
// framed byte for byte like the same record in one slice.
func TestAppendPartsFramesLikeOneSlice(t *testing.T) {
	whole, parts := NewLog(512, 8), NewLog(512, 8)
	rw, rp := newMemRegion(512), newMemRegion(512)
	rec := make([]byte, 700)
	for i := range rec {
		rec[i] = byte(i * 7)
	}
	for _, cut := range [][2]int{{0, 700}, {23, 400}, {1, 1}, {699, 700}} {
		whole.Append(rec)
		parts.Append(rec[:cut[0]], rec[cut[0]:cut[1]], rec[cut[1]:])
	}
	whole.Flush(rw.write)
	parts.Flush(rp.write)
	if !bytes.Equal(rw.image(8), rp.image(8)) {
		t.Fatal("frames differ between Append(rec) and Append(pieces of rec)")
	}
	if _, err := parts.Append(nil, []byte{}); err != ErrRecordEmpty {
		t.Fatalf("all-empty parts: err = %v", err)
	}
}

// TestFlushFullHoldsTheTail pins the two flush flavours a batching
// writer combines, and the staging-buffer contract: FlushFull hands over
// only blocks that have filled, Flush the partial tail too, and the tail
// is the same buffer every time it is handed over — a writer that kept
// the first hand-over sees the block's later bytes arrive in it.
func TestFlushFullHoldsTheTail(t *testing.T) {
	l := NewLog(512, 16)
	r := newMemRegion(512)
	var handed [][]byte // every buffer as handed over, by block index
	var order []uint64
	w := func(bi uint64, data []byte) {
		for uint64(len(handed)) <= bi {
			handed = append(handed, nil)
		}
		if handed[bi] != nil && &handed[bi][0] != &data[0] {
			t.Errorf("block %d handed over in a different buffer", bi)
		}
		handed[bi] = data
		order = append(order, bi)
		r.write(bi, data)
	}
	rec := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

	l.Append(rec(300-headerBytes, 1)) // 300 bytes: block 0 partial
	l.FlushFull(w)
	if len(order) != 0 {
		t.Fatalf("FlushFull handed over %v with no block full", order)
	}
	l.Flush(w) // the tail, at 300 of 512
	l.Flush(w) // nothing new: no rewrite
	if !reflect.DeepEqual(order, []uint64{0}) {
		t.Fatalf("after Flush: handed over %v, want block 0 once", order)
	}
	kept := handed[0]
	l.Append(rec(400-headerBytes, 2)) // 700 bytes: block 0 full, block 1 partial
	if kept[300+headerBytes] != 2 || kept[511] != 2 {
		t.Fatal("the buffer handed over as the tail did not receive the block's later bytes")
	}
	l.FlushFull(w)
	l.FlushFull(w)
	if !reflect.DeepEqual(order, []uint64{0, 0}) {
		t.Fatalf("after FlushFull: handed over %v, want block 0 again and not block 1", order)
	}
	l.Append(rec(1000, 3)) // 1714 bytes: blocks 1 and 2 full, block 3 partial
	l.Flush(w)
	if !reflect.DeepEqual(order, []uint64{0, 0, 1, 2, 3}) {
		t.Fatalf("after the last Flush: handed over %v", order)
	}
	got, _ := Recover(r.image(16))
	if len(got) != 3 || len(got[0]) != 300-headerBytes || len(got[1]) != 400-headerBytes || len(got[2]) != 1000 {
		t.Fatalf("recovered %d records", len(got))
	}
}
