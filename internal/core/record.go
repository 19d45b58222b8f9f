package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/patree/patree/internal/storage"
)

// A redo record describes one page of one operation's group. Every record
// starts opSeq(8) idx(1) cnt(1) pageID(8) tag(1); the tag names the rest.
//
//	0xC1 image   prefixLen(2) suffixLen(2) prefix suffix
//	0xC2 set     key(8) value
//	0xC3 delete  key(8)
//
// An image record carries the ends of the page image that hold content
// (storage.UsedExtent); the zero bytes between them — on average a third
// of a leaf — are not logged. Recovery puts the two back at the ends of a
// zeroed page, which is the image byte for byte, and VerifyPages it. A
// leaf record is the one change an operation made to one leaf in place
// (no split, no root move): recovery applies it, last-wins, to the page's
// newest image or, when the live log holds none, to the device's.
//
// Earlier builds logged an 18-byte header and the whole image, so the byte
// in tag's place was the image's page kind (1..3): no tag may ever take
// those values, and a record without a known tag is refused
// (ErrJournalFormat), never skipped — it may hold acknowledged writes.
const (
	recordHeadBytes   = 19
	recordHeaderBytes = recordHeadBytes + 4
	leafHeaderBytes   = recordHeadBytes + 8
	recordTagImage    = 0xC1
	recordTagSet      = 0xC2
	recordTagDelete   = 0xC3
	// maxRecordBytes is the largest record: a page with no hole.
	maxRecordBytes = recordHeaderBytes + storage.PageSize
)

// ErrJournalFormat is Recover's verdict on a live journal generation
// holding a record this build cannot read (untagged, or tagged by a later
// build). The device is left untouched: the build that wrote the log can
// still replay it.
var ErrJournalFormat = errors.New("core: journal record format not supported")

// recordHead fills the fields every record starts with.
func recordHead(hdr []byte, seq uint64, idx, cnt int, id storage.PageID, tag byte) {
	le := binary.LittleEndian
	le.PutUint64(hdr[0:8], seq)
	hdr[8], hdr[9] = byte(idx), byte(cnt)
	le.PutUint64(hdr[10:18], uint64(id))
	hdr[18] = tag
}

// recordHeader fills hdr for a page whose image keeps prefix+suffix bytes.
func recordHeader(hdr []byte, seq uint64, idx, cnt int, id storage.PageID, prefix, suffix int) {
	recordHead(hdr, seq, idx, cnt, id, recordTagImage)
	binary.LittleEndian.PutUint16(hdr[19:21], uint16(prefix))
	binary.LittleEndian.PutUint16(hdr[21:23], uint16(suffix))
}

// leafHeader fills hdr for a one-record group that sets (value follows)
// or deletes key in leaf id.
func leafHeader(hdr []byte, seq uint64, id storage.PageID, del bool, key uint64) {
	tag := byte(recordTagSet)
	if del {
		tag = recordTagDelete
	}
	recordHead(hdr, seq, 0, 1, id, tag)
	binary.LittleEndian.PutUint64(hdr[19:27], key)
}

// redoRecord is a decoded record: image is a fresh full page for an image
// record and nil for a leaf record, which sets key to value or deletes it.
type redoRecord struct {
	seq      uint64
	idx, cnt int
	id       storage.PageID
	image    []byte
	key      uint64
	value    []byte
	del      bool
}

// decodeRecord parses rec, re-inflating an image record's page.
func decodeRecord(rec []byte) (redoRecord, error) {
	if len(rec) < recordHeaderBytes {
		return redoRecord{}, fmt.Errorf("%w: %d-byte record", ErrJournalFormat, len(rec))
	}
	le := binary.LittleEndian
	r := redoRecord{seq: le.Uint64(rec[0:8]), idx: int(rec[8]), cnt: int(rec[9]), id: storage.PageID(le.Uint64(rec[10:18]))}
	switch tag := rec[18]; tag {
	case recordTagImage:
		prefix, suffix := int(le.Uint16(rec[19:21])), int(le.Uint16(rec[21:23]))
		if prefix+suffix > storage.PageSize || recordHeaderBytes+prefix+suffix != len(rec) {
			return redoRecord{}, fmt.Errorf("%w: %d-byte record declares %d+%d image bytes", ErrJournalFormat, len(rec), prefix, suffix)
		}
		r.image = make([]byte, storage.PageSize)
		copy(r.image, rec[recordHeaderBytes:recordHeaderBytes+prefix])
		copy(r.image[storage.PageSize-suffix:], rec[recordHeaderBytes+prefix:])
	case recordTagSet, recordTagDelete:
		r.del = tag == recordTagDelete
		if n := len(rec) - leafHeaderBytes; n < 0 || n > storage.MaxValueSize || (r.del && n > 0) {
			return redoRecord{}, fmt.Errorf("%w: %d-byte leaf record with tag %#x", ErrJournalFormat, len(rec), tag)
		}
		r.key = le.Uint64(rec[19:27])
		r.value = rec[leafHeaderBytes:]
	default:
		// 530 bytes with a page kind for a tag is the untagged layout.
		return redoRecord{}, fmt.Errorf("%w: %d-byte record with no known tag", ErrJournalFormat, len(rec))
	}
	return r, nil
}

// applyLeafRecords folds leaf records, in log order, onto the page image
// they follow with storage.EditLeaf, the edit the working thread made
// them with, and returns the resulting image. A set or delete carries the
// key's whole new state, so only each key's last record counts, and the
// result does not depend on how many of the records the image already
// reflects: any state of the page between the image the log starts from
// and the newest folds to the newest. The way there need not pass through
// states that fit, though: an image written back late already holds what
// a later record made room for. So a set that does not fit yet waits for
// a second pass, behind every other key's last record; what is left then
// only grows the page towards its newest state, which fits. image must be
// verified, as recovery's base reads and journaled images are; one that is
// not a leaf is refused, since the log that names the page is device input
// too.
func applyLeafRecords(id storage.PageID, image []byte, recs []redoRecord) ([]byte, error) {
	if !storage.PageIsLeaf(image) {
		return nil, fmt.Errorf("leaf records for page %d of kind %d: %w", id, image[0], storage.ErrBadKind)
	}
	last := make(map[uint64]int, len(recs))
	for i, r := range recs {
		last[r.key] = i
	}
	// cur alternates between two scratch pages; image is only read.
	scratch := [2][]byte{make([]byte, storage.PageSize), make([]byte, storage.PageSize)}
	cur, n := image, 0
	for pass := 0; pass < 2; pass++ {
		var wait []redoRecord
		for i, r := range recs {
			if pass == 0 && last[r.key] != i {
				continue
			}
			if _, fits := storage.EditLeaf(scratch[n], cur, id, r.key, r.value, r.del); !fits {
				wait = append(wait, r)
				continue
			}
			cur, n = scratch[n], 1-n
		}
		if recs = wait; len(recs) == 0 {
			return cur, nil
		}
	}
	return nil, fmt.Errorf("leaf records overflow page %d", id)
}
