// Package pagemap is the working thread's page-keyed hash table: the
// latch table, the buffer index and the tree's write-back, read-ahead and
// journal bookkeeping all key on a page ID and sit on the per-node path,
// where a Go map's generic hashing and bucket walk cost more than the
// tree work around them.
//
// A Map is open-addressed over a power-of-two slot array: a page ID hashes
// multiplicatively (Fibonacci hashing) to its home slot, collisions probe
// linearly, and a delete shifts the rest of its probe run back instead of
// leaving a tombstone, so a lookup never walks past the live entries that
// collide with it. The array doubles when live entries pass 3/4 of it and
// halves when they fall below 1/8 (down to shrinkFloor slots), so its
// size follows the live entries, not the range of IDs or a past peak.
//
// A slot stores id+1, so a zero key marks it empty and a slot is a key and
// a value with no flag beside them. The one ID that wraps to zero,
// 2^64-1, lives in a side slot; every page ID is a valid key.
//
// A Map is not safe for concurrent use; its owner is the one thread that
// touches it.
package pagemap

import (
	"math"

	"github.com/patree/patree/internal/storage"
)

// minSlots is the slot array a first insert allocates.
const minSlots = 8

// shrinkFloor is the size below which a Map never shrinks: a table this
// small is a few cache lines, and one whose live entries swing between a
// handful and a few dozen (the latch table) would otherwise reallocate
// on every swing.
const shrinkFloor = 64

// Map maps page IDs to values of type V. The zero Map is empty and ready
// to use.
type Map[V any] struct {
	slots []slot[V]
	n     int  // entries in slots
	shift uint // 64 - log2(len(slots))
	// The side slot of page ID 2^64-1.
	hasMax bool
	maxV   V
}

// slot holds key id+1; key 0 is empty.
type slot[V any] struct {
	key uint64
	v   V
}

// home is key's first probe slot: the top bits of a multiplicative hash,
// which spread the runs of adjacent IDs a tree allocates.
func (m *Map[V]) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> m.shift)
}

// find returns the slot index of key (id+1, nonzero), or -1 when it is
// absent.
func (m *Map[V]) find(key uint64) int {
	if m.n == 0 {
		return -1
	}
	mask := len(m.slots) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// Get returns id's value and whether id is present.
func (m *Map[V]) Get(id storage.PageID) (V, bool) {
	key := uint64(id) + 1
	if key == 0 {
		return m.maxV, m.hasMax
	}
	if i := m.find(key); i >= 0 {
		return m.slots[i].v, true
	}
	var zero V
	return zero, false
}

// Put sets id's value, inserting id if it is absent.
func (m *Map[V]) Put(id storage.PageID, v V) { *m.Ref(id) = v }

// Ref returns a pointer to id's value, inserting id with the zero value
// if it is absent: a lookup that may insert costs one probe, not two. The
// pointer is valid until the next Put, Ref, Delete or Clear.
func (m *Map[V]) Ref(id storage.PageID) *V {
	key := uint64(id) + 1
	if key == 0 {
		m.hasMax = true
		return &m.maxV
	}
	if (m.n+1)*4 > len(m.slots)*3 {
		m.resize(max(2*len(m.slots), minSlots))
	}
	mask := len(m.slots) - 1
	i := m.home(key)
	for ; m.slots[i].key != 0; i = (i + 1) & mask {
		if m.slots[i].key == key {
			return &m.slots[i].v
		}
	}
	m.slots[i].key = key
	m.n++
	return &m.slots[i].v
}

// resize moves every entry into a fresh array of size slots.
func (m *Map[V]) resize(size int) {
	old := m.slots
	m.slots = make([]slot[V], size)
	m.shift = 64
	for s := size; s > 1; s >>= 1 {
		m.shift--
	}
	mask := size - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := m.home(s.key)
		for m.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// Delete removes id and reports whether it was present. Each entry after
// it in the probe run moves back into the hole unless that would put it
// before its home slot, so the run stays unbroken without tombstones.
func (m *Map[V]) Delete(id storage.PageID) bool {
	key := uint64(id) + 1
	if key == 0 {
		was := m.hasMax
		var zero V
		m.hasMax, m.maxV = false, zero
		return was
	}
	hole := m.find(key)
	if hole < 0 {
		return false
	}
	mask := len(m.slots) - 1
	for j := (hole + 1) & mask; m.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole if its home is no nearer to j
		// than the hole is (distances taken cyclically).
		if (j-m.home(m.slots[j].key))&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole] = slot[V]{}
	m.n--
	if m.n*8 < len(m.slots) && len(m.slots) > shrinkFloor {
		m.resize(len(m.slots) / 2)
	}
	return true
}

// Len returns the number of entries.
func (m *Map[V]) Len() int {
	if m.hasMax {
		return m.n + 1
	}
	return m.n
}

// Slots returns the size of the slot array, the memory the Map holds in
// units of entries.
func (m *Map[V]) Slots() int { return len(m.slots) }

// Clear removes every entry and keeps the slot array.
func (m *Map[V]) Clear() {
	clear(m.slots)
	m.n = 0
	var zero V
	m.hasMax, m.maxV = false, zero
}

// Keys appends every present page ID to dst, in no particular order, and
// returns the extended slice.
func (m *Map[V]) Keys(dst []storage.PageID) []storage.PageID {
	for i := range m.slots {
		if k := m.slots[i].key; k != 0 {
			dst = append(dst, storage.PageID(k-1))
		}
	}
	if m.hasMax {
		dst = append(dst, math.MaxUint64)
	}
	return dst
}
