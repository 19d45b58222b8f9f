package storage

import (
	"errors"
	"fmt"
)

// MetaMagic identifies a PA-Tree meta page.
const MetaMagic = 0x50415452 // "PATR"

// MetaVersion is the current layout version.
const MetaVersion = 1

// metaUsed is the length of the meta page's fields; the rest is zero.
const metaUsed = 84

// Meta is the tree superblock stored in page 0.
//
//	[0]     kind = KindMeta
//	[1]     version
//	[2:4]   reserved
//	[4:12]  reserved (next field of common header unused)
//	[12:16] crc32 (common header position)
//	[16:20] magic
//	[20:28] root page id
//	[28:29] height (levels, 1 = single leaf)
//	[29:32] reserved
//	[32:40] watermark (first never-allocated page id)
//	[40:48] number of keys in the tree
//	[48:56] sync epoch (incremented by each durable sync)
//	[56:64] WAL region start block (0 = no journal region)
//	[64:72] WAL region length in blocks
//	[72:76] WAL generation fence: recovery replays only records whose
//	        generation is >= this value, so records retired by a
//	        checkpoint can never resurrect
//	[76:78] shard id (0-based position in a sharded DB)
//	[78:80] shard count (0 = unsharded single-worker tree)
//	[80:82] device id (0-based index in a multi-device topology)
//	[82:84] device count (0 = single-device layout)
//
// The WAL, shard and device fields decode as zero on images written
// before they existed, which reads as "no journal region", "unsharded"
// and "single device" — older images stay openable.
type Meta struct {
	Root        PageID
	Height      uint8
	Watermark   PageID
	NumKeys     uint64
	SyncEpoch   uint64
	WALStart    uint64 // first block of the journal region (0 = none)
	WALBlocks   uint64 // journal region length in blocks
	WALGen      uint32 // minimum live journal generation
	ShardID     uint16 // position of this tree in a sharded keyspace
	ShardCount  uint16 // total shards (0 = unsharded)
	DeviceID    uint16 // index of the device this shard was placed on
	DeviceCount uint16 // total devices in the topology (0 = single device)
}

// ErrNotMeta reports a page that is not a valid meta page.
var ErrNotMeta = errors.New("storage: not a meta page")

// EncodeTo serializes the meta page into buf and seals it.
func (m *Meta) EncodeTo(buf []byte) {
	for i := range buf[:PageSize] {
		buf[i] = 0
	}
	buf[0] = KindMeta
	buf[1] = MetaVersion
	putU32(buf[16:20], MetaMagic)
	putU64(buf[20:28], uint64(m.Root))
	buf[28] = m.Height
	putU64(buf[32:40], uint64(m.Watermark))
	putU64(buf[40:48], m.NumKeys)
	putU64(buf[48:56], m.SyncEpoch)
	putU64(buf[56:64], m.WALStart)
	putU64(buf[64:72], m.WALBlocks)
	putU32(buf[72:76], m.WALGen)
	putU16(buf[76:78], m.ShardID)
	putU16(buf[78:80], m.ShardCount)
	putU16(buf[80:82], m.DeviceID)
	putU16(buf[82:84], m.DeviceCount)
	seal(NilPage, buf)
}

// Encode allocates and returns a sealed meta page image.
func (m *Meta) Encode() []byte {
	buf := make([]byte, PageSize)
	m.EncodeTo(buf)
	return buf
}

// DecodeMeta verifies and parses a meta page image: the superblock is read
// only at open and recovery, so it is checked where it is decoded.
func DecodeMeta(buf []byte) (*Meta, error) {
	if !VerifyPage(NilPage, buf) {
		return nil, ErrCorruptPage
	}
	if buf[0] != KindMeta || getU32(buf[16:20]) != MetaMagic {
		return nil, ErrNotMeta
	}
	if buf[1] != MetaVersion {
		return nil, fmt.Errorf("storage: meta version %d unsupported", buf[1])
	}
	return &Meta{
		Root:        PageID(getU64(buf[20:28])),
		Height:      buf[28],
		Watermark:   PageID(getU64(buf[32:40])),
		NumKeys:     getU64(buf[40:48]),
		SyncEpoch:   getU64(buf[48:56]),
		WALStart:    getU64(buf[56:64]),
		WALBlocks:   getU64(buf[64:72]),
		WALGen:      getU32(buf[72:76]),
		ShardID:     getU16(buf[76:78]),
		ShardCount:  getU16(buf[78:80]),
		DeviceID:    getU16(buf[80:82]),
		DeviceCount: getU16(buf[82:84]),
	}, nil
}

// Allocator hands out page ids. Allocation is an in-memory decision (the
// watermark is persisted via the meta page); freed pages are recycled
// within a session. Pages freed after the last durable meta write are not
// reclaimed across restarts — a deliberate simplification documented in
// DESIGN.md (the paper does not address space reclamation at all).
type Allocator struct {
	watermark PageID
	free      []PageID
}

// NewAllocator starts allocating at watermark (page ids below it are
// considered in use; watermark must be >= 1 so page 0 stays the meta page).
func NewAllocator(watermark PageID) *Allocator {
	if watermark < 1 {
		watermark = 1
	}
	return &Allocator{watermark: watermark}
}

// Alloc returns a fresh page id.
func (a *Allocator) Alloc() PageID {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		return id
	}
	id := a.watermark
	a.watermark++
	return id
}

// Free recycles a page id. Freeing the meta page or a never-allocated id
// panics: both indicate tree corruption.
func (a *Allocator) Free(id PageID) {
	if id == NilPage || id >= a.watermark {
		panic(fmt.Sprintf("storage: freeing invalid page %d (watermark %d)", id, a.watermark))
	}
	a.free = append(a.free, id)
}

// Watermark returns the first never-allocated page id.
func (a *Allocator) Watermark() PageID { return a.watermark }

// FreeCount returns the number of recyclable pages.
func (a *Allocator) FreeCount() int { return len(a.free) }
