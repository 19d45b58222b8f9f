package storage

import (
	"fmt"
	"hash/crc32"
)

// This file is the concurrent-reader view of a page image. SearchPage and
// checkSeal briefly zero the checksum field in place, which is fine on the
// worker's private buffers but a data race on an image shared with other
// goroutines. The *Shared variants below never write to buf: the checksum
// is recomputed by streaming the header prefix, four zero bytes standing in
// for the stored CRC, and the payload through crc32.Update. They exist for
// the optimistic read path, where page images are published as immutable
// byte slices and may be examined by any number of readers at once.

// zeroCRC stands in for the zeroed checksum field during verification.
var zeroCRC [4]byte

// checkSealShared verifies the page checksum without mutating buf.
func checkSealShared(buf []byte) bool {
	want := getU32(buf[12:16])
	got := crc32.Update(0, crcTable, buf[:12])
	got = crc32.Update(got, crcTable, zeroCRC[:])
	got = crc32.Update(got, crcTable, buf[16:PageSize])
	return got == want
}

// VerifyPageShared is VerifyPage for concurrently-read images: it reports
// whether buf holds a full page with a matching checksum, without ever
// writing to buf.
func VerifyPageShared(buf []byte) bool {
	return len(buf) >= PageSize && checkSealShared(buf[:PageSize])
}

// PageNext extracts the right-sibling link from a sealed page image
// without decoding it. The caller must have verified the image.
func PageNext(buf []byte) PageID { return PageID(getU64(buf[4:12])) }

// PageIsLeaf reports whether a sealed page image encodes a leaf. The
// caller must have verified the image.
func PageIsLeaf(buf []byte) bool { return buf[0] == KindLeaf }

// PageLevel returns a sealed page image's tree level (0 for a leaf). The
// caller must have verified the image.
func PageLevel(buf []byte) int { return int(buf[1]) }

// InnerChild returns child i of a verified inner page image: child 0
// follows the header, child i+1 the i-th separator.
func InnerChild(buf []byte, i int) PageID {
	if i == 0 {
		return PageID(getU64(buf[headerSize:]))
	}
	return PageID(getU64(buf[headerSize+8+(i-1)*innerEntry+8:]))
}

// InnerKey returns separator i of a verified inner page image, and
// whether the page has one: children i and i+1 are split at it.
func InnerKey(buf []byte, i int) (uint64, bool) {
	if i >= int(getU16(buf[2:4])) {
		return 0, false
	}
	return getU64(buf[headerSize+8+i*innerEntry:]), true
}

// SearchPageShared is SearchPage for concurrently-read images: the same
// decode-free binary search over the encoded slot array, with the same
// single value-copy allocation on a leaf hit, but using the non-mutating
// checksum so any number of goroutines can search one image at once.
func SearchPageShared(buf []byte, key uint64) (SearchStep, error) {
	if len(buf) < PageSize {
		return SearchStep{}, fmt.Errorf("storage: short page (%d bytes)", len(buf))
	}
	if !checkSealShared(buf[:PageSize]) {
		return SearchStep{}, ErrCorruptPage
	}
	return searchSealed(buf, key)
}

// searchSealed runs the kind dispatch and binary search of SearchPage on
// an already-verified image. Factored out so shared readers can verify an
// image once at publication and search it many times.
func searchSealed(buf []byte, key uint64) (SearchStep, error) {
	kind := buf[0]
	level := buf[1]
	nkeys := int(getU16(buf[2:4]))
	switch kind {
	case KindLeaf:
		if level != 0 {
			return SearchStep{}, fmt.Errorf("storage: leaf with level %d: %w", level, ErrBadKind)
		}
		lo, hi := 0, nkeys
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if getU64(buf[headerSize+mid*slotSize:]) < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= nkeys || getU64(buf[headerSize+lo*slotSize:]) != key {
			return SearchStep{Leaf: true}, nil
		}
		vo := int(getU16(buf[headerSize+lo*slotSize+8:]))
		vl := int(getU16(buf[headerSize+lo*slotSize+10:]))
		if vo+vl > PageSize || vo < headerSize {
			return SearchStep{}, fmt.Errorf("storage: leaf slot %d out of range", lo)
		}
		v := make([]byte, vl)
		copy(v, buf[vo:vo+vl])
		return SearchStep{Leaf: true, Found: true, Value: v}, nil

	case KindInner:
		if level == 0 {
			return SearchStep{}, fmt.Errorf("storage: inner with level 0: %w", ErrBadKind)
		}
		lo, hi := 0, nkeys
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if key >= getU64(buf[headerSize+8+mid*innerEntry:]) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return SearchStep{Child: InnerChild(buf, lo), Index: lo}, nil

	default:
		return SearchStep{}, fmt.Errorf("storage: kind %d: %w", kind, ErrBadKind)
	}
}

// LeafRangeShared iterates the pairs of a verified leaf image that fall in
// [lo, hi], emitting each (key, fresh value copy) in key order until emit
// returns false. It returns the leaf's right-sibling link and whether the
// range is exhausted: beyond=true means a key > hi was seen (or emit
// stopped the walk), so no page further right can contribute. It never
// writes to buf; the caller must have verified the image.
func LeafRangeShared(buf []byte, lo, hi uint64, emit func(key uint64, val []byte) bool) (next PageID, beyond bool, err error) {
	if buf[0] != KindLeaf || buf[1] != 0 {
		return NilPage, false, fmt.Errorf("storage: kind %d level %d in leaf walk: %w", buf[0], buf[1], ErrBadKind)
	}
	nkeys := int(getU16(buf[2:4]))
	next = PageID(getU64(buf[4:12]))
	// Binary search for the first slot >= lo, then emit forward.
	i, j := 0, nkeys
	for i < j {
		mid := int(uint(i+j) >> 1)
		if getU64(buf[headerSize+mid*slotSize:]) < lo {
			i = mid + 1
		} else {
			j = mid
		}
	}
	for ; i < nkeys; i++ {
		k := getU64(buf[headerSize+i*slotSize:])
		if k > hi {
			return next, true, nil
		}
		vo := int(getU16(buf[headerSize+i*slotSize+8:]))
		vl := int(getU16(buf[headerSize+i*slotSize+10:]))
		if vo+vl > PageSize || vo < headerSize {
			return NilPage, false, fmt.Errorf("storage: leaf slot %d out of range", i)
		}
		v := make([]byte, vl)
		copy(v, buf[vo:vo+vl])
		if !emit(k, v) {
			return next, true, nil
		}
	}
	return next, false, nil
}
