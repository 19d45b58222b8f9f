package storage

// EditLeaf writes into dst (len >= PageSize) the sealed image of leaf id,
// whose image src holds, with key set to value, or removed when del is
// set. The image is byte for byte what DecodeNode, then InsertLeaf or
// DeleteLeafAt, then EncodeTo produce, but no Node is built: the slots are
// copied in key order with the one change spliced in, and the values are
// packed again from the tail. found reports whether src held key. A set
// that would overflow the page reports fits=false and leaves dst
// unwritten; the caller splits. A delete always fits.
//
// src is left as it was, so it may be an image the buffer, an in-flight
// write and a log record all share; dst must not overlap it. src must be
// a verified leaf image (see VerifyPage), and the caller bounds value by
// MaxValueSize.
func EditLeaf(dst, src []byte, id PageID, key uint64, value []byte, del bool) (found, fits bool) {
	nkeys := numKeys(src)
	used := headerSize + nkeys*slotSize
	for i := range nkeys {
		used += len(leafValue(src, i))
	}
	at, found := leafSearch(src, key)
	switch {
	case found && del:
		used -= slotSize + len(leafValue(src, at))
	case found:
		used += len(value) - len(leafValue(src, at))
	case !del:
		used += slotSize + len(value)
	}
	if used > PageSize {
		return found, false
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
		put(leafKey(src, i), leafValue(src, i))
	}
	putU16(dst[2:4], uint16((off-headerSize)/slotSize))
	seal(id, dst)
	return found, true
}
