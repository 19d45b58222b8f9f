package nvme

import (
	"bytes"
	"math/bits"

	"github.com/patree/patree/internal/pagemap"
	"github.com/patree/patree/internal/storage"
)

// extentBlocks is the blocks per extent, one bit each of its written-bitmap.
const extentBlocks = 64

// extent is extentBlocks consecutive blocks, allocated whole on the first
// write to any of them and overwritten in place after.
type extent struct {
	data    []byte
	written uint64 // bit i: block i has been written
}

// blockStore is the sparse block image both devices keep. Extents are
// found by extent number in a pagemap.Map, so a command costs one table
// probe and a copy per extent it spans, an overwrite allocates nothing,
// and memory follows the extents written, not the device's capacity.
// Each device guards its store as it guards the rest of its state.
type blockStore struct {
	extents pagemap.Map[extent]
}

// read copies the bytes starting at block lba into buf. Unwritten blocks
// read as zeros.
func (s *blockStore) read(lba uint64, buf []byte) {
	for len(buf) > 0 {
		e, _ := s.extents.Get(storage.PageID(lba / extentBlocks))
		off := int(lba%extentBlocks) * blockSize
		n := min(len(buf), extentBlocks*blockSize-off)
		if e.data != nil {
			copy(buf[:n], e.data[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		lba += uint64(n / blockSize)
	}
}

// write stores buf starting at block lba. A buf that ends mid-block
// zero-fills the rest of that block.
func (s *blockStore) write(lba uint64, buf []byte) {
	for len(buf) > 0 {
		e := s.extents.Ref(storage.PageID(lba / extentBlocks))
		if e.data == nil {
			e.data = make([]byte, extentBlocks*blockSize)
		}
		first := int(lba % extentBlocks)
		off := first * blockSize
		n := min(len(buf), extentBlocks*blockSize-off)
		nb := (n + blockSize - 1) / blockSize
		copy(e.data[off:], buf[:n])
		clear(e.data[off+n : off+nb*blockSize])
		e.written |= (1<<nb - 1) << first
		buf = buf[n:]
		lba += uint64(nb)
	}
}

// snapshot returns a copy of every written block, keyed by LBA.
func (s *blockStore) snapshot() map[uint64][]byte {
	img := make(map[uint64][]byte)
	for _, id := range s.extents.Keys(nil) {
		e, _ := s.extents.Get(id)
		for w := e.written; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			img[uint64(id)*extentBlocks+uint64(i)] = bytes.Clone(e.data[i*blockSize : (i+1)*blockSize])
		}
	}
	return img
}

// load replaces the image with a copy of img, one block per entry.
func (s *blockStore) load(img map[uint64][]byte) {
	s.extents = pagemap.Map[extent]{}
	for lba, blk := range img {
		s.write(lba, blk)
	}
}
