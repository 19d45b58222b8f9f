package storage

import "fmt"

// EditLeaf writes into dst (len >= PageSize) the sealed image of leaf src
// with key set to value, or removed when del is set. The image is byte
// for byte what DecodeNode, then InsertLeaf or DeleteLeafAt, then EncodeTo
// produce, but no Node is built: the slots are copied in key order with
// the one change spliced in, and the values are packed again from the
// tail. found reports whether src held key. A set that would overflow the
// page reports fits=false and leaves dst unwritten; the caller splits. A
// delete always fits.
//
// src is left as it was, so it may be an image the buffer, an in-flight
// write and a log record all share; dst must not overlap it. src must be
// verified (see VerifyPage): EditLeaf checks every slot as DecodeNode
// does, but not the checksum, and never writes to src. The caller bounds
// value by MaxValueSize.
func EditLeaf(dst, src []byte, key uint64, value []byte, del bool) (found, fits bool, err error) {
	if len(src) < PageSize {
		return false, false, fmt.Errorf("storage: short page (%d bytes)", len(src))
	}
	if src[0] != KindLeaf || src[1] != 0 {
		return false, false, fmt.Errorf("storage: kind %d level %d in leaf edit: %w", src[0], src[1], ErrBadKind)
	}
	nkeys := int(getU16(src[2:4]))
	if headerSize+nkeys*slotSize > PageSize {
		return false, false, fmt.Errorf("storage: leaf with %d slots", nkeys)
	}
	used := headerSize + nkeys*slotSize
	for i := 0; i < nkeys; i++ {
		s := src[headerSize+i*slotSize:]
		vo, vl := int(getU16(s[8:])), int(getU16(s[10:]))
		if vo+vl > PageSize || vo < headerSize {
			return false, false, fmt.Errorf("storage: leaf slot %d out of range", i)
		}
		used += vl
	}
	// at is key's slot, or the slot it goes before: Node.SearchLeaf's.
	at, hi := 0, nkeys
	for at < hi {
		mid := int(uint(at+hi) >> 1)
		if getU64(src[headerSize+mid*slotSize:]) < key {
			at = mid + 1
		} else {
			hi = mid
		}
	}
	found = at < nkeys && getU64(src[headerSize+at*slotSize:]) == key
	switch {
	case found && del:
		used -= slotSize + int(getU16(src[headerSize+at*slotSize+10:]))
	case found:
		used += len(value) - int(getU16(src[headerSize+at*slotSize+10:]))
	case !del:
		used += slotSize + len(value)
	}
	if used > PageSize {
		return found, false, nil
	}

	clear(dst[:PageSize])
	dst[0] = KindLeaf
	copy(dst[4:12], src[4:12])
	heap, off := PageSize, headerSize
	put := func(k uint64, v []byte) {
		heap -= len(v)
		copy(dst[heap:], v)
		putU64(dst[off:], k)
		putU16(dst[off+8:], uint16(heap))
		putU16(dst[off+10:], uint16(len(v)))
		off += slotSize
	}
	for i := 0; i <= nkeys; i++ {
		if i == at && !del {
			put(key, value)
		}
		if i == nkeys || (i == at && found) {
			continue
		}
		s := src[headerSize+i*slotSize:]
		vo := int(getU16(s[8:]))
		put(getU64(s), src[vo:vo+int(getU16(s[10:]))])
	}
	putU16(dst[2:4], uint16((off-headerSize)/slotSize))
	seal(dst[:PageSize])
	return found, true, nil
}
