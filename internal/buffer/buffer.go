// Package buffer implements the software page buffer of §III-C over the
// NVMe interface.
//
// It is a W-TinyLFU cache (Einziger, Friedman and Manes, "TinyLFU: A
// Highly Efficient Cache Admission Policy", ACM TOS 2017). A new page
// enters a small LRU window of 1 % of capacity. When the window
// overflows, its tail is a candidate for the main region, a segmented
// LRU: the candidate enters main only if a count-min sketch of recent
// lookups estimates it more popular than main's victim, and otherwise it
// is the page evicted. Inside main, a second lookup promotes a page from
// probation to a protected segment of about 80 % of main. A key stream
// that touches many pages once (cold leaves, scans) therefore cannot
// flush the pages it keeps coming back to (the upper levels, hot
// leaves), and a page used often keeps its place against one used
// recently. Get is a reference, and the only thing the sketch counts; a
// fill, a read-ahead fill and a write are not. A dirty page and a
// read-ahead page no lookup has touched yet are always admitted: the
// first keeps write-backs as they are, the second waits for its scan.
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
	// AdmissionRejects counts the evictions of a window candidate the
	// frequency filter refused a place in main (a subset of Evictions,
	// always clean).
	AdmissionRejects uint64
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

// Segments: a page enters the window; admitted to main, it enters
// probation and is promoted to the protected segment by a lookup there.
const (
	window = iota
	probation
	protected
)

// windowShare is the window's share of capacity, in percent (at least one
// page from capacity 2 up). On the scrambled-Zipf trace of
// TestZipfTraceMisses, windows of 5, 10 and 20 % miss 0.7, 1.8 and
// 4.3 % more often than 1 %: that popularity is stable, so recency buys
// little that frequency does not.
const windowShare = 1

// protectedShare is the protected segment's share of main, in tenths.
// The policy is not sensitive to it: on embed-cold-read under the
// segmented LRU alone, shares of 7, 8 and 9 gave device commands per
// operation within 6 % of each other.
const protectedShare = 8

// entry is a cached page, on one of the three segment lists.
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
	// yet: its first hit is its first reference, not its second, and
	// the filter never refuses it.
	prefetched bool
	prev, next *entry
}

// slru is the W-TinyLFU cache, named for its main region: a window LRU
// and a segmented-LRU main region (probation and protected, as in 2Q),
// three intrusive lists over one open-addressed page index
// (internal/pagemap) that never holds more than capacity+1 entries, plus
// the lookup sketch that gates admission from window to main. A hit in
// the window refreshes it there; a hit in probation promotes it to the
// head of protected, whose tail is demoted back to the head of probation
// when protected outgrows its share. Capacity is in pages; capacity 0
// disables the cache entirely.
//
// A reference is a lookup (get). Filling a page is not one, and neither
// is updating a resident page (put on a cached id): callers look a page
// up before they write it, so counting the write too would promote every
// page an operation touches.
type slru struct {
	cap, winCap, protCap int
	m                    pagemap.Map[*entry]
	segs                 [3]entry // most-recent sentinels, indexed by seg
	nWindow, nProtected  int
	sketch               *sketch
	stats                Stats
	nextEpoch            uint64
}

func newSLRU(capacity int) *slru {
	l := &slru{cap: capacity}
	if capacity >= 2 {
		l.winCap = max(capacity*windowShare/100, 1)
	}
	// protCap <= main-1 for every main >= 1, so a full main always has a
	// probation page to offer as the victim.
	l.protCap = (capacity - l.winCap) * protectedShare / 10
	if capacity > 0 {
		l.sketch = newSketch(capacity)
	}
	for i := range l.segs {
		l.segs[i].prev = &l.segs[i]
		l.segs[i].next = &l.segs[i]
	}
	return l
}

func (l *slru) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	switch e.seg {
	case window:
		l.nWindow--
	case protected:
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
	switch seg {
	case window:
		l.nWindow++
	case protected:
		l.nProtected++
	}
}

func (l *slru) get(id storage.PageID) *entry {
	if l.sketch != nil {
		l.sketch.add(id)
	}
	e, _ := l.m.Get(id)
	if e == nil {
		l.stats.Misses++
		return nil
	}
	l.stats.Hits++
	l.unlink(e)
	switch {
	case e.seg == window:
		l.pushFront(e, window)
	case e.prefetched || l.protCap == 0:
		l.pushFront(e, probation)
	default:
		l.pushFront(e, protected)
		if l.nProtected > l.protCap {
			tail := l.segs[protected].prev
			l.unlink(tail)
			l.pushFront(tail, probation)
		}
	}
	e.prefetched = false
	return e
}

// peek looks up without touching recency, the sketch or stats.
func (l *slru) peek(id storage.PageID) *entry {
	e, _ := l.m.Get(id)
	return e
}

// put inserts id with data into the window, returning the entry the
// insert evicted (if the capacity forced one out) for the caller to
// handle: main's victim, or the window's candidate if the filter refused
// it. On a cached id it updates data, dirty bit and epoch in place.
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
	l.pushFront(e, window)
	if l.nWindow <= l.winCap {
		return nil // main never outgrows cap-winCap, so the cache has room
	}
	cand := l.segs[window].prev
	l.unlink(cand)
	if l.m.Len() <= l.cap {
		l.pushFront(cand, probation)
		return nil
	}
	// Main is full, and protCap < its size leaves probation a victim.
	victim := l.segs[probation].prev
	if cand.dirty || cand.prefetched || l.sketch.estimate(cand.id) > l.sketch.estimate(victim.id) {
		l.pushFront(cand, probation)
		l.unlink(victim)
	} else {
		victim = cand
		l.stats.AdmissionRejects++
	}
	l.m.Delete(victim.id)
	l.stats.Evictions++
	if victim.dirty {
		l.stats.DirtyEvictions++
	}
	return victim
}

// coldestFirst calls fn for every entry in eviction order: probation tail
// to head, then protected tail to head, then the window tail to head.
func (l *slru) coldestFirst(fn func(*entry)) {
	for _, seg := range []int{probation, protected, window} {
		head := &l.segs[seg]
		for e := head.prev; e != head; e = e.prev {
			fn(e)
		}
	}
}

// sketch is a count-min sketch of page lookups (TinyLFU's frequency
// filter): sketchRows rows of 8-bit counters, each a power of two wide
// and at least sketchWidth × capacity. An add raises only the row
// counters that hold the page's current minimum (conservative update),
// and every counter is halved each sketchPeriod × capacity adds, so the
// estimate follows the recent popularity. The hash is fixed, not seeded:
// a simulated schedule must replay bit for bit.
type sketch struct {
	rows         [sketchRows][]uint8 // each mask+1 counters wide
	mask         uint64
	adds, period int
}

const (
	sketchRows   = 4
	sketchWidth  = 4
	sketchPeriod = 250
)

func newSketch(capacity int) *sketch {
	width := 1
	for width < sketchWidth*capacity {
		width <<= 1
	}
	s := &sketch{mask: uint64(width - 1), period: sketchPeriod * capacity}
	for i := range s.rows {
		s.rows[i] = make([]uint8, width)
	}
	return s
}

// counters returns id's counter in each row (double hashing over one
// splitmix64 finaliser).
func (s *sketch) counters(id storage.PageID) (c [sketchRows]*uint8) {
	h := uint64(id) + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	lo, hi := h&0xffffffff, h>>32|1
	for i := range c {
		c[i] = &s.rows[i][(lo+uint64(i)*hi)&s.mask]
	}
	return c
}

func least(c [sketchRows]*uint8) uint8 {
	m := *c[0]
	for _, p := range c[1:] {
		m = min(m, *p)
	}
	return m
}

func (s *sketch) estimate(id storage.PageID) uint8 { return least(s.counters(id)) }

func (s *sketch) add(id storage.PageID) {
	c := s.counters(id)
	if m := least(c); m < 255 {
		for _, p := range c {
			if *p == m {
				*p++
			}
		}
	}
	if s.adds++; s.adds == s.period {
		s.adds = 0
		for _, row := range s.rows {
			for i := range row {
				row[i] >>= 1
			}
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

// DirtyPages snapshots all dirty pages (for Sync). Order is eviction
// order, coldest first.
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
// counting a lookup or touching recency or the sketch.
func (b *Buffer) DirtyImage(id storage.PageID) (Dirty, bool) {
	if e := b.l.peek(id); e != nil && e.dirty {
		return Dirty{ID: e.id, Data: e.data, Epoch: e.epoch}, true
	}
	return Dirty{}, false
}

// Contains reports whether id is cached, without counting a lookup or
// touching recency or the sketch.
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
