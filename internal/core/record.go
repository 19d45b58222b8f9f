package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/patree/patree/internal/storage"
)

// A redo record describes one page of one operation's group:
//
//	opSeq(8) idx(1) cnt(1) pageID(8) tag(1) prefixLen(2) suffixLen(2) prefix suffix
//
// prefix and suffix are the ends of the page image that carry content
// (storage.UsedExtent); the zero bytes between them — on average a third
// of a leaf — are not logged. Recovery puts the two back at the ends of a
// zeroed page, which is the image byte for byte, and VerifyPages it.
//
// tag names this layout. Earlier builds logged an 18-byte header and the
// whole image, so the byte in tag's place was the image's page kind
// (1..3): no tag may ever take those values, and a record without a known
// tag is refused (ErrJournalFormat), never skipped — it may hold
// acknowledged writes.
const (
	recordHeaderBytes = 23
	recordTagImage    = 0xC1
	// maxRecordBytes is the largest record: a page with no hole.
	maxRecordBytes = recordHeaderBytes + storage.PageSize
)

// ErrJournalFormat is Recover's verdict on a live journal generation
// holding a record this build cannot read (untagged, or tagged by a later
// build). The device is left untouched: the build that wrote the log can
// still replay it.
var ErrJournalFormat = errors.New("core: journal record format not supported")

// recordHeader fills hdr for a page whose image keeps prefix+suffix bytes.
func recordHeader(hdr *[recordHeaderBytes]byte, seq uint64, idx, cnt int, id storage.PageID, prefix, suffix int) {
	le := binary.LittleEndian
	le.PutUint64(hdr[0:8], seq)
	hdr[8], hdr[9] = byte(idx), byte(cnt)
	le.PutUint64(hdr[10:18], uint64(id))
	hdr[18] = recordTagImage
	le.PutUint16(hdr[19:21], uint16(prefix))
	le.PutUint16(hdr[21:23], uint16(suffix))
}

// redoRecord is a decoded record. image is a fresh full page.
type redoRecord struct {
	seq      uint64
	idx, cnt int
	id       storage.PageID
	image    []byte
}

// decodeRecord parses rec and re-inflates its page image.
func decodeRecord(rec []byte) (redoRecord, error) {
	if len(rec) < recordHeaderBytes || rec[18] != recordTagImage {
		// 530 bytes with a page kind for a tag is the untagged layout.
		return redoRecord{}, fmt.Errorf("%w: %d-byte record with no known tag", ErrJournalFormat, len(rec))
	}
	le := binary.LittleEndian
	prefix, suffix := int(le.Uint16(rec[19:21])), int(le.Uint16(rec[21:23]))
	if prefix+suffix > storage.PageSize || recordHeaderBytes+prefix+suffix != len(rec) {
		return redoRecord{}, fmt.Errorf("%w: %d-byte record declares %d+%d image bytes", ErrJournalFormat, len(rec), prefix, suffix)
	}
	image := make([]byte, storage.PageSize)
	copy(image, rec[recordHeaderBytes:recordHeaderBytes+prefix])
	copy(image[storage.PageSize-suffix:], rec[recordHeaderBytes+prefix:])
	return redoRecord{
		seq: le.Uint64(rec[0:8]), idx: int(rec[8]), cnt: int(rec[9]),
		id: storage.PageID(le.Uint64(rec[10:18])), image: image,
	}, nil
}
