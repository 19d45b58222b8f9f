// Package wal implements a block-oriented write-ahead log used by the
// weak-persistence machinery: the LCB-Tree baseline logs every update
// before applying it, the LSM tree logs memtable inserts, and the paper's
// weak-persistent PA-Tree is motivated by exactly this pattern (§III-C:
// "with the help of write ahead log, it is unnecessary to persist every
// single operation").
//
// The log is a fixed region of blocks. Records are framed as
//
//	magic(2) generation(4) length(4) crc32(4) payload
//
// with frames packed back-to-back across block boundaries. The generation
// increments on each Reset so recovery never resurrects frames from a
// previous life of the region; the CRC (over generation, length and
// payload) stops recovery at a torn tail.
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

const (
	frameMagic  = 0xA55A
	headerBytes = 14 // magic 2 + gen 4 + len 4 + crc 4
)

// Errors.
var (
	ErrLogFull     = errors.New("wal: log region full")
	ErrRecordEmpty = errors.New("wal: empty record")
	ErrTooLarge    = errors.New("wal: record too large for region")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BlockWriter persists one block. data is the log's own staging buffer,
// not a copy: a writer that keeps it past the call (PA-Tree's journal
// writer does) sees the block's later bytes appear in it, never its
// earlier ones change.
type BlockWriter func(blockIndex uint64, data []byte)

// Log is an appender over a fixed region of capBlocks blocks of blockSize
// bytes each. Frames are encoded straight into block-sized staging
// buffers, and Flush hands those buffers to the writer.
type Log struct {
	blockSize int
	capBlocks uint64
	gen       uint32

	used    int // bytes framed this generation
	flushed int // bytes already handed to a writer (may end mid-block)
	// staged holds the staging buffers of blocks flushed/blockSize
	// onward. A buffer leaves the list with the flush that hands it over
	// full; a partly flushed tail stays, so later frames extend the very
	// buffer its first write was given.
	staged  [][]byte
	nextLSN uint64

	// slab is the rest of the allocation staging blocks are cut from;
	// hdr is frame-header scratch (the checksum routine is an indirect
	// call, which would move a local to the heap).
	slab []byte
	hdr  [headerBytes]byte
}

// NewLog creates a log over capBlocks blocks of blockSize bytes, starting
// at generation 1.
func NewLog(blockSize int, capBlocks uint64) *Log {
	if blockSize <= int(headerBytes) {
		panic("wal: block size too small")
	}
	return &Log{blockSize: blockSize, capBlocks: capBlocks, gen: 1}
}

// Generation returns the current generation number.
func (l *Log) Generation() uint32 { return l.gen }

// SetGeneration overrides the current generation. Recovery uses it to
// continue a reopened log past the generations that are already on the
// device (or fenced out by the superblock), so fresh records always carry
// a strictly newer generation than anything stale in the region.
func (l *Log) SetGeneration(g uint32) {
	if g < 1 {
		g = 1
	}
	l.gen = g
}

// CapBytes returns the region capacity in bytes.
func (l *Log) CapBytes() int { return int(l.capBlocks) * l.blockSize }

// UsedBytes returns the bytes consumed by the frames appended so far,
// flushed or not.
func (l *Log) UsedBytes() int { return l.used }

// Remaining returns the bytes still appendable before ErrLogFull.
func (l *Log) Remaining() int { return l.CapBytes() - l.used }

// FrameOverhead is the per-record framing cost in bytes, exported so
// callers can budget capacity checks before appending.
const FrameOverhead = headerBytes

// slabBlocks is how many staging blocks one allocation yields.
const slabBlocks = 8

// NextLSN returns the LSN the next Append will receive.
func (l *Log) NextLSN() uint64 { return l.nextLSN }

// Append frames the record whose payload is the concatenation of parts
// and stages it, returning its LSN. The record is not durable until its
// blocks have been flushed and written. A header and a body in different
// places are passed as they are: nothing is assembled first.
func (l *Log) Append(parts ...[]byte) (uint64, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return 0, ErrRecordEmpty
	}
	if uint64(l.used+headerBytes+n) > l.capBlocks*uint64(l.blockSize) {
		return 0, ErrLogFull
	}
	hdr := l.hdr[:]
	binary.LittleEndian.PutUint16(hdr[0:2], frameMagic)
	binary.LittleEndian.PutUint32(hdr[2:6], l.gen)
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(n))
	crc := crc32.Checksum(hdr[2:10], crcTable)
	for _, p := range parts {
		crc = crc32.Update(crc, crcTable, p)
	}
	binary.LittleEndian.PutUint32(hdr[10:14], crc)
	l.stage(hdr)
	for _, p := range parts {
		l.stage(p)
	}
	lsn := l.nextLSN
	l.nextLSN++
	return lsn, nil
}

// stage copies b to the log's end, opening staging blocks as it crosses
// into them.
func (l *Log) stage(b []byte) {
	bs := l.blockSize
	for len(b) > 0 {
		i := l.used/bs - l.flushed/bs
		if i == len(l.staged) {
			if len(l.slab) < bs {
				l.slab = make([]byte, slabBlocks*bs)
			}
			l.staged = append(l.staged, l.slab[:bs:bs])
			l.slab = l.slab[bs:]
		}
		n := copy(l.staged[i][l.used%bs:], b)
		l.used += n
		b = b[n:]
	}
}

// Flush hands every block holding unflushed bytes to write, in ascending
// block order. The last may be partial (zero-padded); the flush after the
// next append hands it over again, same index, same buffer.
func (l *Log) Flush(write BlockWriter) { l.flushTo(write, l.used) }

// FlushFull is Flush without the partial tail block. A writer that
// batches commits calls it as records arrive and Flush for the tail.
func (l *Log) FlushFull(write BlockWriter) {
	l.flushTo(write, l.used-l.used%l.blockSize)
}

func (l *Log) flushTo(write BlockWriter, upTo int) {
	if upTo <= l.flushed {
		return
	}
	bs := l.blockSize
	first := l.flushed / bs
	for b := first; b*bs < upTo; b++ {
		write(uint64(b), l.staged[b-first])
	}
	l.flushed = upTo
	// Blocks wholly below the flush point now belong to the writer alone.
	full := upTo/bs - first
	rest := copy(l.staged, l.staged[full:])
	clear(l.staged[rest:])
	l.staged = l.staged[:rest]
}

// Reset abandons all content, bumps the generation and rewrites block 0
// so stale frames are never replayed.
func (l *Log) Reset(write BlockWriter) {
	l.gen++
	l.used, l.flushed = 0, 0
	clear(l.staged)
	l.staged = l.staged[:0]
	l.nextLSN = 0
	write(0, make([]byte, l.blockSize))
}

// Recover scans the raw region content (concatenated blocks, starting at
// block 0) and returns the payloads of all valid frames of the newest
// generation found at the head of the region. Scanning stops at the first
// invalid frame (zero magic, CRC mismatch, or generation change).
func Recover(region []byte) (records [][]byte, gen uint32) {
	off := 0
	first := true
	for off+headerBytes <= len(region) {
		if binary.LittleEndian.Uint16(region[off:off+2]) != frameMagic {
			break
		}
		g := binary.LittleEndian.Uint32(region[off+2 : off+6])
		n := int(binary.LittleEndian.Uint32(region[off+6 : off+10]))
		want := binary.LittleEndian.Uint32(region[off+10 : off+14])
		if off+headerBytes+n > len(region) || n == 0 {
			break
		}
		if first {
			gen = g
			first = false
		} else if g != gen {
			break
		}
		payload := region[off+headerBytes : off+headerBytes+n]
		crc := crc32.Checksum(region[off+2:off+10], crcTable)
		crc = crc32.Update(crc, crcTable, payload)
		if crc != want {
			break
		}
		rec := make([]byte, n)
		copy(rec, payload)
		records = append(records, rec)
		off += headerBytes + n
	}
	return records, gen
}
