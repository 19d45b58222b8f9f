// Package buffer implements the software page buffer of §III-C over the
// NVMe interface.
//
// It keeps pages in a segmented LRU (slru below): a page enters a
// probation segment and only a second lookup promotes it to a protected
// segment of about 80 % of capacity, and evictions take the probation
// tail. A key stream that touches many pages once (cold leaves, scans)
// therefore cannot flush the pages it keeps coming back to (the upper
// levels, hot leaves). A fill, a read-ahead fill and a write are not
// references; Get is.
//
// One type serves both persistence modes of §III-C. A write-through
// (strong-persistence) user only ever fills clean images, and a page
// written by an update enters the buffer only after its write I/O
// *completes* — never at submission — so cached data is always
// consistent with the NVM contents and a power failure can never expose
// a cached-but-unpersisted page (the rule §III-C derives). Such a buffer
// never holds a dirty page, so it never hands one back.
//
// A write-back (weak-persistence or journaled) user additionally absorbs
// writes in memory with Write, marking pages dirty; dirty pages reach the
// device only on eviction or Sync(), which merges multiple updates of a
// hot page into one NVMe write and cuts the write-amplification factor.
//
// The buffer is passive: it never performs I/O. Eviction hands dirty
// victims back to the caller, which owns scheduling the write-back.
package buffer

import (
	"github.com/patree/patree/internal/pagemap"
	"github.com/patree/patree/internal/storage"
)

// Stats counts buffer effectiveness.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// DirtyEvictions counts the evictions that handed a dirty victim back
	// for write-back (a subset of Evictions).
	DirtyEvictions uint64
	// WriteMerges counts writes absorbed into an already-dirty page — the
	// write-amplification savings of weak persistence.
	WriteMerges uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits) / float64(tot)
}

// Segments of the SLRU: a page enters probation and is promoted to the
// protected segment by its second reference.
const (
	probation = iota
	protected
)

// protectedShare is the protected segment's share of capacity, in
// tenths. The policy is not sensitive to it: on the benchmark's
// larger-than-cache read workload (embed-cold-read), shares of 7, 8 and
// 9 gave device commands per operation within 6 % of each other.
const protectedShare = 8

// entry is an SLRU node.
type entry struct {
	id    storage.PageID
	data  []byte
	dirty bool
	// epoch is a globally unique stamp assigned on each dirtying write;
	// it guards MarkClean. Global monotonicity matters: if epochs were
	// per-entry they would restart when a page is evicted and re-cached,
	// and a stale write-back completion could then clean a newer dirty
	// version, silently losing an update.
	epoch uint64
	seg   int
	// prefetched marks a read-ahead fill that no lookup has referenced
	// yet: its first hit is its first reference, not its second.
	prefetched bool
	prev, next *entry
}

// slru is a segmented LRU (as in 2Q) over an open-addressed page index
// (internal/pagemap) that never holds more than capacity+1 entries: two
// intrusive lists, probation and protected. A page enters probation; a
// hit there promotes it to the head of protected, whose tail is demoted
// back to the head of probation when protected outgrows its share.
// Evictions take the probation tail, so a stream of pages touched once
// cannot push out a page referenced twice. Capacity is in pages;
// capacity 0 disables the cache entirely.
//
// A reference is a lookup (get). Filling a page is not one, beyond
// entering probation, and neither is updating a resident page (put on a
// cached id): callers look a page up before they write it, so counting the
// write too would promote every page an operation touches.
type slru struct {
	cap, protCap int
	m            pagemap.Map[*entry]
	segs         [2]entry // most-recent sentinels, indexed by seg
	nProtected   int
	stats        Stats
	nextEpoch    uint64
}

func newSLRU(capacity int) *slru {
	// protCap <= capacity-1 for every capacity >= 1, so probation is never
	// empty when an insert overflows the cache.
	l := &slru{cap: capacity, protCap: capacity * protectedShare / 10}
	for i := range l.segs {
		l.segs[i].prev = &l.segs[i]
		l.segs[i].next = &l.segs[i]
	}
	return l
}

func (l *slru) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	if e.seg == protected {
		l.nProtected--
	}
}

func (l *slru) pushFront(e *entry, seg int) {
	head := &l.segs[seg]
	e.seg = seg
	e.prev = head
	e.next = head.next
	head.next.prev = e
	head.next = e
	if seg == protected {
		l.nProtected++
	}
}

func (l *slru) get(id storage.PageID) *entry {
	e, _ := l.m.Get(id)
	if e == nil {
		l.stats.Misses++
		return nil
	}
	l.stats.Hits++
	l.unlink(e)
	if e.prefetched || l.protCap == 0 {
		e.prefetched = false
		l.pushFront(e, probation)
		return e
	}
	l.pushFront(e, protected)
	if l.nProtected > l.protCap {
		tail := l.segs[protected].prev
		l.unlink(tail)
		l.pushFront(tail, probation)
	}
	return e
}

// peek looks up without touching recency or stats.
func (l *slru) peek(id storage.PageID) *entry {
	e, _ := l.m.Get(id)
	return e
}

// put inserts id with data into probation, returning an evicted entry (if
// the capacity forced one out) for the caller to handle. On a cached id it
// updates data, dirty bit and epoch in place.
func (l *slru) put(id storage.PageID, data []byte, dirty, prefetched bool) (evicted *entry) {
	if l.cap <= 0 {
		return nil
	}
	ref := l.m.Ref(id)
	if e := *ref; e != nil {
		e.data = data
		if dirty {
			if e.dirty {
				l.stats.WriteMerges++
			}
			e.dirty = true
			l.nextEpoch++
			e.epoch = l.nextEpoch
		}
		return nil
	}
	e := &entry{id: id, data: data, dirty: dirty, prefetched: prefetched}
	if dirty {
		l.nextEpoch++
		e.epoch = l.nextEpoch
	}
	*ref = e
	l.pushFront(e, probation)
	if l.m.Len() > l.cap {
		victim := l.segs[probation].prev
		l.unlink(victim)
		l.m.Delete(victim.id)
		l.stats.Evictions++
		if victim.dirty {
			l.stats.DirtyEvictions++
		}
		return victim
	}
	return nil
}

// coldestFirst calls fn for every entry in eviction order: probation tail
// to head, then protected tail to head.
func (l *slru) coldestFirst(fn func(*entry)) {
	for _, seg := range []int{probation, protected} {
		head := &l.segs[seg]
		for e := head.prev; e != head; e = e.prev {
			fn(e)
		}
	}
}

// Dirty describes a dirty page handed back by the buffer.
type Dirty struct {
	ID    storage.PageID
	Data  []byte
	Epoch uint64
}

// Buffer is the page buffer of both persistence modes.
type Buffer struct{ l *slru }

// New creates a buffer holding up to capacity pages. Capacity 0 disables
// caching (every Get misses).
func New(capacity int) *Buffer { return &Buffer{l: newSLRU(capacity)} }

// NewReadOnly is New.
//
// Deprecated: use New. The benchmark module (bench/isolated.go) still
// calls it; it goes when that module moves to New.
func NewReadOnly(capacity int) *Buffer { return New(capacity) }

// Get returns the cached image of id, if present. The returned slice is
// owned by the buffer; callers must not mutate it.
func (b *Buffer) Get(id storage.PageID) ([]byte, bool) {
	if e := b.l.get(id); e != nil {
		return e.data, true
	}
	return nil, false
}

// FillOnRead caches a clean page after a read I/O completed, or after a
// write-through write completed (a cached page keeps its place). The
// buffer takes ownership of data. If filling evicts a dirty victim, it is
// returned for write-back.
func (b *Buffer) FillOnRead(id storage.PageID, data []byte) (Dirty, bool) {
	return wrapEvict(b.l.put(id, data, false, false))
}

// FillOnPrefetch is FillOnRead for a page read ahead of any lookup: the
// first Get that finds it does not promote it.
func (b *Buffer) FillOnPrefetch(id storage.PageID, data []byte) (Dirty, bool) {
	return wrapEvict(b.l.put(id, data, false, true))
}

// Write absorbs a page update in memory, marking it dirty. No I/O happens;
// a cached page keeps its place, and if the insert of a new one evicts a
// dirty victim, it is returned for write-back.
func (b *Buffer) Write(id storage.PageID, data []byte) (Dirty, bool) {
	return wrapEvict(b.l.put(id, data, true, false))
}

func wrapEvict(e *entry) (Dirty, bool) {
	if e == nil || !e.dirty {
		return Dirty{}, false
	}
	return Dirty{ID: e.id, Data: e.data, Epoch: e.epoch}, true
}

// DirtyPages snapshots all dirty pages (for Sync) of both segments. Order
// is eviction order, coldest first.
func (b *Buffer) DirtyPages() []Dirty {
	var out []Dirty
	b.l.coldestFirst(func(e *entry) {
		if e.dirty {
			out = append(out, Dirty{ID: e.id, Data: e.data, Epoch: e.epoch})
		}
	})
	return out
}

// DirtyImage returns id's image and epoch if it is cached dirty, without
// counting a lookup or touching recency.
func (b *Buffer) DirtyImage(id storage.PageID) (Dirty, bool) {
	if e := b.l.peek(id); e != nil && e.dirty {
		return Dirty{ID: e.id, Data: e.data, Epoch: e.epoch}, true
	}
	return Dirty{}, false
}

// Contains reports whether id is cached, without counting a lookup or
// touching recency.
func (b *Buffer) Contains(id storage.PageID) bool { return b.l.peek(id) != nil }

// MarkClean marks id clean if its dirty epoch still equals epoch; a page
// rewritten after the snapshot keeps its dirty bit, so no update can be
// lost between a Sync snapshot and its write-back completions.
func (b *Buffer) MarkClean(id storage.PageID, epoch uint64) {
	if e := b.l.peek(id); e != nil && e.dirty && e.epoch == epoch {
		e.dirty = false
	}
}

// Cap returns the configured capacity in pages (0 = caching disabled).
func (b *Buffer) Cap() int { return b.l.cap }

// DirtyCount returns the number of dirty pages.
func (b *Buffer) DirtyCount() int {
	n := 0
	b.l.coldestFirst(func(e *entry) {
		if e.dirty {
			n++
		}
	})
	return n
}

// Len returns the number of cached pages.
func (b *Buffer) Len() int { return b.l.m.Len() }

// Stats returns cumulative counters.
func (b *Buffer) Stats() Stats { return b.l.stats }

// ResetStats zeroes the counters.
func (b *Buffer) ResetStats() { b.l.stats = Stats{} }
