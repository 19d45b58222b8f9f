// Package storage defines the on-device layout of PA-Tree: 512-byte pages
// (the NVMe minimal access granularity, which the paper adopts as the
// index node size to minimize read/write amplification), the B+ tree node
// encodings, the meta page, and the page allocator.
//
// Layouts (all little-endian):
//
//	common header (16 bytes)
//	  [0]     kind (1=leaf, 2=inner, 3=meta)
//	  [1]     level (0 for leaves)
//	  [2:4]   nkeys
//	  [4:12]  next (right-sibling page id at the same level; 0 = none)
//	  [12:16] crc32 of the page with this field zeroed
//
//	inner node: header, children[0] (8 bytes), then nkeys * (key 8, child 8).
//	  Keys separate children: subtree children[i] holds keys < Keys[i];
//	  children[i+1] holds keys >= Keys[i].
//
//	leaf node: header, then a slot array growing forward — each slot is
//	  (key 8, valueOffset 2, valueLen 2) — with value bytes packed at the
//	  tail of the page growing backward.
//
// VerifyPage is the one check of a page: where bytes leave the device it
// decides, from the checksum, the page id and the layout above, whether
// they are a page. Every reader in this package (SearchPage, EditLeaf,
// LeafRangeShared, DecodeNode, the inner accessors, UsedExtent) trusts a
// verified image, or one this package wrote, and re-checks nothing.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PageSize is the node size in bytes; one NVMe block.
const PageSize = 512

// PageID addresses a page; it equals the device LBA (block index).
// 0 is the meta page, so 0 never identifies a tree node and doubles as
// the nil page id.
type PageID uint64

// NilPage is the absent-page sentinel.
const NilPage PageID = 0

// Node kinds.
const (
	KindLeaf  = 1
	KindInner = 2
	KindMeta  = 3
)

const (
	headerSize = 16
	slotSize   = 12 // key(8) + valueOffset(2) + valueLen(2)
	innerEntry = 16 // key(8) + child(8)

	// InnerMaxKeys is the inner-node fanout minus one:
	// (512 - 16 header - 8 child0) / 16 = 30 keys, 31 children.
	InnerMaxKeys = (PageSize - headerSize - 8) / innerEntry

	// MaxValueSize bounds a single value so that two maximal entries fit
	// one leaf: 2*(slot + value) <= PageSize - header, i.e. value <= 236.
	// This guarantees the insert-path split loop always converges — a
	// single-entry leaf can absorb one more maximal value — without
	// overflow pages (the paper's 108-byte SSE records fit comfortably).
	MaxValueSize = (PageSize-headerSize)/2 - slotSize
)

// Errors.
var (
	ErrValueTooLarge = errors.New("storage: value exceeds MaxValueSize")
	ErrCorruptPage   = errors.New("storage: page fails verification")
	ErrBadKind       = errors.New("storage: unexpected page kind")
	ErrNodeFull      = errors.New("storage: node full")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// fieldCRC[k][b] is what byte value b at offset 12+k of a page adds to
// the page's CRC. A CRC is affine in its input, so the CRC of a page with
// its checksum field zeroed is the page's CRC, however seeded, XOR the
// four entries of the field's bytes: pageSum reads the page and never
// writes it.
var fieldCRC = func() (t [4][256]uint32) {
	var page [PageSize]byte
	zero := crc32.Checksum(page[:], crcTable)
	for k := range 4 {
		for bit := range 8 {
			page[12+k] = 1 << bit
			basis := crc32.Checksum(page[:], crcTable) ^ zero
			page[12+k] = 0
			for b := range 256 {
				if b&(1<<bit) != 0 {
					t[k][b] ^= basis
				}
			}
		}
	}
	return t
}()

// Node is the in-memory form of a tree node. A split decodes device pages
// into Nodes, mutates them and encodes them back (other mutations edit the
// sealed leaf in place; see EditLeaf); Nodes are never shared between
// operations (the latch protocol orders access to the underlying page).
type Node struct {
	ID    PageID
	Level uint8 // 0 = leaf
	Keys  []uint64
	// Children has len(Keys)+1 entries on inner nodes, nil on leaves.
	Children []PageID
	// Vals has len(Keys) entries on leaves, nil on inner nodes.
	Vals [][]byte
	// Next is the right-sibling page at the same level (NilPage for the
	// rightmost node of a level). Maintained by SplitLeaf and SplitInner;
	// nodes that never split leave it NilPage.
	Next PageID
}

// NewLeaf returns an empty leaf node with the given id.
func NewLeaf(id PageID) *Node { return &Node{ID: id, Level: 0} }

// NewInner returns an empty inner node at the given level (>= 1).
func NewInner(id PageID, level uint8) *Node { return &Node{ID: id, Level: level} }

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// NumKeys returns the number of keys.
func (n *Node) NumKeys() int { return len(n.Keys) }

func putU16(b []byte, v uint16) { binary.LittleEndian.PutUint16(b, v) }
func getU16(b []byte) uint16    { return binary.LittleEndian.Uint16(b) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// pageSum returns the checksum of page id in buf[:PageSize]: the CRC,
// seeded by the id, of the image with its checksum field zeroed, whatever
// the field holds. Distinct seeds give distinct sums for the same bytes,
// so on a device under 2^32 blocks one page's image never verifies as
// another's. Seed 0 is the plain CRC, so the meta page's sum is unseeded.
func pageSum(id PageID, buf []byte) uint32 {
	buf = buf[:PageSize]
	return crc32.Update(uint32(id)^uint32(id>>32), crcTable, buf) ^
		fieldCRC[0][buf[12]] ^ fieldCRC[1][buf[13]] ^ fieldCRC[2][buf[14]] ^ fieldCRC[3][buf[15]]
}

// seal computes and stores the checksum of page id.
func seal(id PageID, buf []byte) { putU32(buf[12:16], pageSum(id, buf)) }

// VerifyPage reports whether buf holds page id as a write sealed it. It
// is the only check of a page, made where bytes leave the device, before
// anything caches or decodes them:
//   - the checksum, seeded by id, catches bit rot, torn writes and
//     misdirected reads (another page's image at id's address);
//   - the shape: a leaf is at level 0, the value of every slot of its
//     nkeys lies inside the page, behind the slot array, and the values
//     together fit the page (so the leaf re-encodes); an inner node is
//     above level 0, holds at most InnerMaxKeys keys and no nil child; a
//     meta page is page 0; no other kind is a page.
//
// A verified image, like one this package wrote, is trusted from then on:
// the readers index it without bounds checks of their own. VerifyPage
// only reads buf, so the image may be shared.
func VerifyPage(id PageID, buf []byte) bool {
	if len(buf) < PageSize || getU32(buf[12:16]) != pageSum(id, buf) {
		return false
	}
	nkeys := numKeys(buf)
	switch buf[0] {
	case KindLeaf:
		slots := headerSize + nkeys*slotSize
		if buf[1] != 0 || slots > PageSize {
			return false
		}
		used := slots
		for i := range nkeys {
			vo, vl := leafSlot(buf, i)
			if vo < slots || vo+vl > PageSize {
				return false
			}
			used += vl
		}
		return used <= PageSize
	case KindInner:
		if buf[1] == 0 || nkeys > InnerMaxKeys {
			return false
		}
		for i := range nkeys + 1 {
			if InnerChild(buf, i) == NilPage {
				return false
			}
		}
		return true
	case KindMeta:
		return id == NilPage
	}
	return false
}

// The slot accessors read a trusted image (see VerifyPage).

func numKeys(buf []byte) int            { return int(getU16(buf[2:4])) }
func leafKey(buf []byte, i int) uint64  { return getU64(buf[headerSize+i*slotSize:]) }
func innerKey(buf []byte, i int) uint64 { return getU64(buf[headerSize+8+i*innerEntry:]) }

// leafSlot returns the offset and length of slot i's value.
func leafSlot(buf []byte, i int) (vo, vl int) {
	s := buf[headerSize+i*slotSize:]
	return int(getU16(s[8:])), int(getU16(s[10:]))
}

// leafValue returns slot i's value, aliasing buf.
func leafValue(buf []byte, i int) []byte {
	vo, vl := leafSlot(buf, i)
	return buf[vo : vo+vl]
}

// leafValueCopy returns a fresh copy of slot i's value: make and copy
// compile to one allocation and one copy, where bytes.Clone's append
// costs several times as much on the lookup path.
func leafValueCopy(buf []byte, i int) []byte {
	v := leafValue(buf, i)
	c := make([]byte, len(v))
	copy(c, v)
	return c
}

// leafSearch is Node.SearchLeaf over the encoded slots of a leaf image:
// the index of key, or of the first slot above it, and whether key is
// there.
func leafSearch(buf []byte, key uint64) (int, bool) {
	n := numKeys(buf)
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if leafKey(buf, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n && leafKey(buf, lo) == key
}

// innerSearch is Node.ChildIndex over the encoded entries of an inner
// image: the index of the child whose subtree covers key.
func innerSearch(buf []byte, key uint64) int {
	lo, hi := 0, numKeys(buf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key >= innerKey(buf, mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UsedExtent returns how many leading and trailing bytes of a page image
// carry content: header and slot array in front and value heap at the
// back for a leaf, header and entries in front for an inner node or the
// meta page. Every byte between the two is zero in an image this package
// wrote, which is what UsedExtent is for.
func UsedExtent(buf []byte) (prefix, suffix int) {
	switch buf[0] {
	case KindMeta:
		return metaUsed, 0
	case KindInner:
		return headerSize + 8 + numKeys(buf)*innerEntry, 0
	}
	heap := PageSize
	for i := range numKeys(buf) {
		vo, _ := leafSlot(buf, i)
		heap = min(heap, vo)
	}
	return headerSize + numKeys(buf)*slotSize, PageSize - heap
}

// LeafUsed returns the bytes a leaf currently occupies (header + slots +
// values).
func (n *Node) LeafUsed() int {
	used := headerSize + len(n.Keys)*slotSize
	for _, v := range n.Vals {
		used += len(v)
	}
	return used
}

// LeafFits reports whether a new pair with the given value length fits.
func (n *Node) LeafFits(valueLen int) bool {
	return n.LeafUsed()+slotSize+valueLen <= PageSize
}

// LeafFitsReplace reports whether replacing the value at index i with one
// of newLen bytes fits.
func (n *Node) LeafFitsReplace(i, newLen int) bool {
	return n.LeafUsed()-len(n.Vals[i])+newLen <= PageSize
}

// EncodeTo serializes n into buf (len >= PageSize) and seals the checksum.
// It panics if the node does not fit — callers must have checked capacity
// via LeafFits / InnerMaxKeys, so overflow here is a logic bug.
func (n *Node) EncodeTo(buf []byte) {
	for i := range buf[:PageSize] {
		buf[i] = 0
	}
	if n.IsLeaf() {
		buf[0] = KindLeaf
	} else {
		buf[0] = KindInner
	}
	buf[1] = n.Level
	putU16(buf[2:4], uint16(len(n.Keys)))
	putU64(buf[4:12], uint64(n.Next))
	if n.IsLeaf() {
		if n.LeafUsed() > PageSize {
			panic(fmt.Sprintf("storage: leaf %d overflow: %d bytes", n.ID, n.LeafUsed()))
		}
		heap := PageSize
		off := headerSize
		for i, k := range n.Keys {
			v := n.Vals[i]
			heap -= len(v)
			copy(buf[heap:], v)
			putU64(buf[off:], k)
			putU16(buf[off+8:], uint16(heap))
			putU16(buf[off+10:], uint16(len(v)))
			off += slotSize
		}
	} else {
		if len(n.Keys) > InnerMaxKeys {
			panic(fmt.Sprintf("storage: inner %d overflow: %d keys", n.ID, len(n.Keys)))
		}
		if len(n.Children) != len(n.Keys)+1 {
			panic(fmt.Sprintf("storage: inner %d has %d keys but %d children", n.ID, len(n.Keys), len(n.Children)))
		}
		putU64(buf[headerSize:], uint64(n.Children[0]))
		off := headerSize + 8
		for i, k := range n.Keys {
			putU64(buf[off:], k)
			putU64(buf[off+8:], uint64(n.Children[i+1]))
			off += innerEntry
		}
	}
	seal(n.ID, buf)
}

// Encode allocates and returns a sealed page image.
func (n *Node) Encode() []byte {
	buf := make([]byte, PageSize)
	n.EncodeTo(buf)
	return buf
}

// DecodeNode parses a verified page image (see VerifyPage) into a Node
// with the given id. Only a page that is not a tree node is an error.
func DecodeNode(id PageID, buf []byte) (*Node, error) {
	n := &Node{ID: id, Level: buf[1], Next: PageID(getU64(buf[4:12]))}
	nkeys := numKeys(buf)
	switch buf[0] {
	case KindLeaf:
		n.Keys = make([]uint64, nkeys)
		n.Vals = make([][]byte, nkeys)
		for i := range nkeys {
			n.Keys[i] = leafKey(buf, i)
			n.Vals[i] = leafValueCopy(buf, i)
		}
	case KindInner:
		n.Keys = make([]uint64, nkeys)
		n.Children = make([]PageID, nkeys+1)
		for i := range n.Keys {
			n.Keys[i] = innerKey(buf, i)
		}
		for i := range n.Children {
			n.Children[i] = InnerChild(buf, i)
		}
	default:
		return nil, fmt.Errorf("storage: kind %d: %w", buf[0], ErrBadKind)
	}
	return n, nil
}

// SearchLeaf returns the index of key in a leaf and whether it is present;
// when absent, the index is the insertion point.
func (n *Node) SearchLeaf(key uint64) (int, bool) {
	lo, hi := 0, len(n.Keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.Keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.Keys) && n.Keys[lo] == key
}

// ChildIndex returns the index in Children to follow for key on an inner
// node: the child whose subtree covers key (keys >= Keys[i] go right).
func (n *Node) ChildIndex(key uint64) int {
	lo, hi := 0, len(n.Keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key >= n.Keys[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// InsertLeaf inserts or replaces (key, value) in a leaf, assuming it fits.
// Returns whether an existing value was replaced.
func (n *Node) InsertLeaf(key uint64, value []byte) bool {
	i, found := n.SearchLeaf(key)
	v := make([]byte, len(value))
	copy(v, value)
	if found {
		n.Vals[i] = v
		return true
	}
	n.Keys = append(n.Keys, 0)
	copy(n.Keys[i+1:], n.Keys[i:])
	n.Keys[i] = key
	n.Vals = append(n.Vals, nil)
	copy(n.Vals[i+1:], n.Vals[i:])
	n.Vals[i] = v
	return false
}

// DeleteLeafAt removes the pair at index i.
func (n *Node) DeleteLeafAt(i int) {
	n.Keys = append(n.Keys[:i], n.Keys[i+1:]...)
	n.Vals = append(n.Vals[:i], n.Vals[i+1:]...)
}

// InsertInner inserts (sep, right) after the child at position idx, i.e.
// records that the child there was split with separator sep and new right
// sibling right.
func (n *Node) InsertInner(sep uint64, right PageID) {
	i := n.ChildIndex(sep)
	n.Keys = append(n.Keys, 0)
	copy(n.Keys[i+1:], n.Keys[i:])
	n.Keys[i] = sep
	n.Children = append(n.Children, NilPage)
	copy(n.Children[i+2:], n.Children[i+1:])
	n.Children[i+1] = right
}

// SplitLeaf moves the upper half of n into a fresh leaf with id rightID
// and returns (separator, right node). The separator is the first key of
// the right node (keys >= separator live right). Sibling links are fixed
// so n -> right -> old next.
func (n *Node) SplitLeaf(rightID PageID) (uint64, *Node) {
	// Split by bytes, not count, so variable-length values balance.
	target := n.LeafUsed() / 2
	used := headerSize
	cut := 0
	for i := range n.Keys {
		used += slotSize + len(n.Vals[i])
		if used > target && i > 0 {
			cut = i
			break
		}
		cut = i + 1
	}
	if cut >= len(n.Keys) {
		cut = len(n.Keys) - 1
	}
	if cut < 1 {
		cut = 1
	}
	right := NewLeaf(rightID)
	right.Keys = append(right.Keys, n.Keys[cut:]...)
	right.Vals = append(right.Vals, n.Vals[cut:]...)
	right.Next = n.Next
	n.Keys = n.Keys[:cut:cut]
	n.Vals = n.Vals[:cut:cut]
	n.Next = rightID
	return right.Keys[0], right
}

// SplitInner splits a full inner node: the middle key moves up as the
// separator, the upper keys/children move to a fresh inner node rightID.
// Sibling links are fixed so n -> right -> old next, mirroring SplitLeaf,
// so every level of the page format keeps its B-link chain.
func (n *Node) SplitInner(rightID PageID) (uint64, *Node) {
	mid := len(n.Keys) / 2
	sep := n.Keys[mid]
	right := NewInner(rightID, n.Level)
	right.Keys = append(right.Keys, n.Keys[mid+1:]...)
	right.Children = append(right.Children, n.Children[mid+1:]...)
	right.Next = n.Next
	n.Keys = n.Keys[:mid:mid]
	n.Children = n.Children[: mid+1 : mid+1]
	n.Next = rightID
	return sep, right
}
