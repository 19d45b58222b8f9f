package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/storage"
)

// This file is the worker→reader publication side of intra-shard read
// concurrency (DESIGN.md §15). The polled worker stays the sole mutator;
// what changes is that, with Config.ConcurrentReads set, it *publishes* an
// immutable image of every page it installs in the buffer into a pubTable
// that read-only goroutines may traverse without touching the worker, its
// latch table, or its buffers. Publication is seqlock-style per page:
//
//	frame.ver  odd  = image pointer mid-update or frame retired
//	frame.ver  even = img holds the page's current published image
//
// The worker bumps ver to odd, stores the new image pointer, then bumps
// back to even; a reader snapshots (ver, img) and trusts img only if ver
// was even and unchanged across the pointer load. Images themselves are
// immutable once stored — install snapshots the page bytes at publication
// time, decoupling them from the worker's live (and still mutating)
// buffer — so a reader holding an image can search it at leisure; the
// version dance only guards the *pointer* and orders image against B-link
// metadata, and re-checking a frame's version answers "is this image still
// current?" during path validation.
//
// The table mirrors buffer residency: pages are published when they enter
// a buffer (fill or write-back) and retired when they leave it, via the
// buffer's eviction hook. Retiring poisons the frame's version to odd
// *before* deleting it from the map, so a reader that obtained the frame
// earlier can never validate against a retired frame that a later
// re-publication would resurrect (the stale-version ABA the tests hunt).

// pubImage is one published page state: the sealed immutable image plus
// the B-link metadata readers need without decoding.
type pubImage struct {
	data []byte
	// right is the right-sibling link decoded from the image header,
	// cached so the escape check costs no parsing. NilPage when none.
	right storage.PageID
	// highKey, when hasHigh is set, is the exclusive upper bound of this
	// page's key range: every key >= highKey lives somewhere along the
	// right-link chain. Split publication knows the bound exactly (the
	// separator); images published by plain buffer fills do not, and a
	// reader landing on such a page can escape only by restarting.
	highKey uint64
	hasHigh bool
}

// pubFrame is one page's seqlock slot. Only the worker writes it.
type pubFrame struct {
	ver atomic.Uint64
	img atomic.Pointer[pubImage]
}

// loadImage snapshots the frame under the seqlock protocol. ok=false
// means the frame was mid-update (or retired) across every attempt and
// the caller should restart its descent.
func (f *pubFrame) loadImage() (img *pubImage, ver uint64, ok bool) {
	for i := 0; i < 4; i++ {
		v := f.ver.Load()
		if v&1 == 1 {
			continue
		}
		im := f.img.Load()
		if f.ver.Load() == v && im != nil {
			return im, v, true
		}
	}
	return nil, 0, false
}

// pendStripes shards the pending-key registry to keep producer-side
// contention negligible.
const pendStripes = 64

type pendStripe struct {
	mu sync.RWMutex
	m  map[uint64]uint32
	_  [24]byte // keep neighbouring stripes off one cache line
}

// pendingKeys counts, per exact key, the writes admitted but not yet
// complete. It is the read-your-writes fence: an optimistic read of a key
// with a pending write must fall back to the admission pipeline, where
// keyDeps orders it behind that write. Producers increment *before* the
// ring push (so the count can never lag the inbox) and the worker
// decrements at op teardown, after the op's pages were published.
type pendingKeys struct {
	stripes [pendStripes]pendStripe
}

func pendStripeOf(key uint64) uint64 {
	// splitmix64-style finalizer; same family as ShardOf but a different
	// rotation so stripe choice does not correlate with shard choice.
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	return (key >> 33) % pendStripes
}

func (p *pendingKeys) inc(key uint64) {
	s := &p.stripes[pendStripeOf(key)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64]uint32)
	}
	s.m[key]++
	s.mu.Unlock()
}

func (p *pendingKeys) dec(key uint64) {
	s := &p.stripes[pendStripeOf(key)]
	s.mu.Lock()
	if n := s.m[key]; n <= 1 {
		delete(s.m, key)
	} else {
		s.m[key] = n - 1
	}
	s.mu.Unlock()
}

func (p *pendingKeys) pending(key uint64) bool {
	s := &p.stripes[pendStripeOf(key)]
	s.mu.RLock()
	_, ok := s.m[key]
	s.mu.RUnlock()
	return ok
}

// readerLatBuckets is the log2-nanosecond histogram width: bucket i
// counts durations in [2^i, 2^(i+1)) ns, saturating at the top.
const readerLatBuckets = 40

// ReaderLatency is a mergeable log2 latency histogram maintained with
// atomics so concurrent readers record without coordination.
type ReaderLatency struct {
	Count   uint64
	Sum     time.Duration
	Buckets [readerLatBuckets]uint64
}

// Merge accumulates o into l.
func (l *ReaderLatency) Merge(o *ReaderLatency) {
	l.Count += o.Count
	l.Sum += o.Sum
	for i := range l.Buckets {
		l.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average recorded duration.
func (l *ReaderLatency) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Sum / time.Duration(l.Count)
}

// Percentile returns an upper bound on the q-th percentile (0 < q <= 100)
// at log2 resolution.
func (l *ReaderLatency) Percentile(q float64) time.Duration {
	if l.Count == 0 {
		return 0
	}
	rank := uint64(q / 100 * float64(l.Count))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range l.Buckets {
		seen += c
		if seen >= rank {
			return time.Duration(uint64(1) << (uint(i) + 1))
		}
	}
	return l.Sum // saturated top bucket; Sum is a safe upper bound
}

// Summary returns l's headline view for exposition.
func (l *ReaderLatency) Summary() metrics.Summary {
	return metrics.Summary{Count: l.Count, Mean: l.Mean(), P50: l.Percentile(50), P95: l.Percentile(95), P99: l.Percentile(99), Max: l.Percentile(100)}
}

// ReaderStats is the observability snapshot of the optimistic read path.
// Counters are cumulative since Open; Merge sums them across shards.
type ReaderStats struct {
	// Attempts counts optimistic point reads started; Served counts those
	// answered without the pipeline. Attempts - Served fell back.
	Attempts uint64 `metric:"- counter sum"`
	Served   uint64 `metric:"patree_reader_ops_total{op=get,outcome=served} counter sum" help:"Optimistic (ConcurrentReads) read attempts by outcome."`
	// Restarts counts full descent restarts (version changed underfoot);
	// Escapes counts right-link hops taken after a concurrent split.
	Restarts uint64 `metric:"patree_reader_restarts_total counter sum" help:"Optimistic-read descent restarts (version changed underfoot)."`
	Escapes  uint64 `metric:"patree_reader_escapes_total counter sum" help:"Right-link hops taken to escape concurrent splits."`
	// Fallback reasons: a pending write on the key (read-your-writes), a
	// page absent from the published table, or restarts exhausted.
	FallbackPending  uint64 `metric:"patree_reader_ops_total{op=get,outcome=fallback-pending} counter sum"`
	FallbackMiss     uint64 `metric:"patree_reader_ops_total{op=get,outcome=fallback-miss} counter sum"`
	FallbackRestarts uint64 `metric:"patree_reader_ops_total{op=get,outcome=fallback-restarts} counter sum"`
	// Scan counterparts.
	ScanAttempts uint64 `metric:"- counter sum"`
	ScanServed   uint64 `metric:"patree_reader_ops_total{op=scan,outcome=served} counter sum"`
	// Lat is the latency distribution of served optimistic point reads.
	Lat ReaderLatency
}

// Merge accumulates o into s (for cross-shard snapshots).
func (s *ReaderStats) Merge(o *ReaderStats) {
	metrics.Fold(s, o)
	s.Lat.Merge(&o.Lat)
}

// pubTable is one shard's published-page table.
type pubTable struct {
	// rootReg packs the published root register: rootID<<8 | height.
	// 0 means "nothing published — fall back" (PageID 0 is the meta page,
	// never a root), which is also how a failed tree withdraws the fast
	// path. One word so readers load root and height tear-free.
	rootReg atomic.Uint64

	// frames maps PageID -> *pubFrame. sync.Map fits the access pattern:
	// read-mostly with a stable working set, so reader Loads stay on the
	// lock-free read map.
	frames sync.Map

	pend pendingKeys

	// Reader-side counters (atomic; written by reader goroutines, read by
	// snapshots anywhere).
	attempts         atomic.Uint64
	served           atomic.Uint64
	restarts         atomic.Uint64
	escapes          atomic.Uint64
	fallbackPending  atomic.Uint64
	fallbackMiss     atomic.Uint64
	fallbackRestarts atomic.Uint64
	scanAttempts     atomic.Uint64
	scanServed       atomic.Uint64
	latCount         atomic.Uint64
	latSum           atomic.Int64
	latBuckets       [readerLatBuckets]atomic.Uint64
}

func newPubTable() *pubTable { return &pubTable{} }

func (p *pubTable) recordLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.latCount.Add(1)
	p.latSum.Add(int64(d))
	b := bits.Len64(uint64(d)) // 0 for d=0; bucket of [2^i, 2^(i+1)) is i+1-1
	if b > 0 {
		b--
	}
	if b >= readerLatBuckets {
		b = readerLatBuckets - 1
	}
	p.latBuckets[b].Add(1)
}

// snapshot gathers the reader counters. Safe from any goroutine.
func (p *pubTable) snapshot() ReaderStats {
	var s ReaderStats
	s.Attempts = p.attempts.Load()
	s.Served = p.served.Load()
	s.Restarts = p.restarts.Load()
	s.Escapes = p.escapes.Load()
	s.FallbackPending = p.fallbackPending.Load()
	s.FallbackMiss = p.fallbackMiss.Load()
	s.FallbackRestarts = p.fallbackRestarts.Load()
	s.ScanAttempts = p.scanAttempts.Load()
	s.ScanServed = p.scanServed.Load()
	s.Lat.Count = p.latCount.Load()
	s.Lat.Sum = time.Duration(p.latSum.Load())
	for i := range s.Lat.Buckets {
		s.Lat.Buckets[i] = p.latBuckets[i].Load()
	}
	return s
}

// ─── worker side ────────────────────────────────────────────────────────

// publishRoot publishes the root register. Worker only.
func (p *pubTable) publishRoot(root storage.PageID, height int) {
	packed := uint64(root)<<8 | uint64(height)&0xff
	if p.rootReg.Load() != packed {
		p.rootReg.Store(packed)
	}
}

// withdrawRoot unpublishes the root register; every subsequent optimistic
// read misses and falls back to the pipeline (which will surface the
// tree's terminal error). Used when the tree enters the failed state.
func (p *pubTable) withdrawRoot() { p.rootReg.Store(0) }

// loadRootReg returns the published root and height.
func (p *pubTable) loadRootReg() (storage.PageID, int, bool) {
	packed := p.rootReg.Load()
	if packed == 0 {
		return storage.NilPage, 0, false
	}
	return storage.PageID(packed >> 8), int(packed & 0xff), true
}

func (p *pubTable) frame(id storage.PageID) *pubFrame {
	if f, ok := p.frames.Load(id); ok {
		return f.(*pubFrame)
	}
	return nil
}

// install makes img the published image of id. Worker only.
//
// The image bytes are snapshotted here: callers hand in the worker's live
// buffer page, which the worker keeps mutating after publication (in-place
// leaf updates, and even read-only SearchPage scratches the checksum field
// in place). A published image must be immutable for its whole lifetime —
// the seqlock only guards the *pointer*, a reader validated against an
// old version may still be reading the old image's bytes — so aliasing
// the buffer would be a data race. One page copy per publication is the
// worker-side price of latch-free readers.
func (p *pubTable) install(id storage.PageID, img *pubImage) {
	img.data = append([]byte(nil), img.data...)
	if f := p.frame(id); f != nil {
		f.ver.Add(1) // odd: update in progress
		f.img.Store(img)
		f.ver.Add(1) // even: published
		return
	}
	f := &pubFrame{}
	f.img.Store(img)
	f.ver.Store(2)
	p.frames.Store(id, f)
}

// publishFill publishes a page image installed by a buffer fill. The
// key-range bound is unknown at fill time, so an existing frame's bound
// carries over (the range of a page only changes at a split, which goes
// through publishSplitMeta) and a fresh frame starts unbounded.
func (p *pubTable) publishFill(id storage.PageID, data []byte) {
	img := &pubImage{data: data, right: storage.PageNext(data)}
	if f := p.frame(id); f != nil {
		if old := f.img.Load(); old != nil {
			img.highKey, img.hasHigh = old.highKey, old.hasHigh
		}
	}
	p.install(id, img)
}

// publishBounded publishes a page image with an explicit key-range bound
// (from split metadata).
func (p *pubTable) publishBounded(id storage.PageID, data []byte, highKey uint64, hasHigh bool) {
	p.install(id, &pubImage{
		data:    data,
		right:   storage.PageNext(data),
		highKey: highKey,
		hasHigh: hasHigh,
	})
}

// retire removes id from the table when it leaves the buffer. The version
// is poisoned to odd *before* the map delete: a reader that loaded this
// frame can never revalidate it, even if the page is later re-published
// under a fresh frame.
func (p *pubTable) retire(id storage.PageID) {
	if f := p.frame(id); f != nil {
		f.ver.Add(1)
		p.frames.Delete(id)
	}
}

// pubSplit records one split performed by an op: left kept keys < sep,
// right (fresh page) took keys >= sep. Replayed at publication time to
// derive each page's final key-range bound.
type pubSplit struct {
	left, right storage.PageID
	sep         uint64
}

// boundsOf replays an op's split records into the final (highKey, hasHigh)
// per touched page: at each split the right page inherits the left page's
// previous bound and the left page's bound becomes the separator. Bounds
// seed from the table's current frames. The result is a small slice, not
// a map — ops rarely split more than a handful of pages.
type pageBound struct {
	id      storage.PageID
	highKey uint64
	hasHigh bool
	known   bool // false: not touched by a split; keep whatever the frame has
}

// publishGroup publishes every page image a completing op installed,
// with split bounds replayed. Ordering is what makes a mid-publication
// race harmless: fresh pages (no existing frame — split right siblings
// and new roots) are installed first, so by the time a reader can see a
// shrunken left page or a parent with a new separator, the right-link
// target it would escape to is already published; then existing pages in
// image order (children-first in strong mode); the root register last.
// Runs on the worker at finishOp, before the op's ack.
func (t *Tree) publishGroup(o *Op) {
	p := t.pub
	if p == nil || t.failed {
		return
	}
	imgs := o.writes
	if len(imgs) == 0 {
		return
	}
	bounds := p.boundsOf(o.pubSplits)
	boundOf := func(id storage.PageID) (uint64, bool, bool) {
		for i := range bounds {
			if bounds[i].id == id {
				return bounds[i].highKey, bounds[i].hasHigh, bounds[i].known
			}
		}
		return 0, false, false
	}
	for pass := 0; pass < 2; pass++ {
		for _, w := range imgs {
			if w.id == 0 {
				continue // meta page: readers use the root register instead
			}
			fresh := p.frame(w.id) == nil
			if (pass == 0) != fresh {
				continue
			}
			if hk, has, known := boundOf(w.id); known {
				p.publishBounded(w.id, w.data, hk, has)
			} else {
				p.publishFill(w.id, w.data)
			}
		}
	}
	p.publishRoot(t.rootID, t.height)
}

func (p *pubTable) boundsOf(splits []pubSplit) []pageBound {
	var bounds []pageBound
	find := func(id storage.PageID) *pageBound {
		for i := range bounds {
			if bounds[i].id == id {
				return &bounds[i]
			}
		}
		bounds = append(bounds, pageBound{id: id})
		b := &bounds[len(bounds)-1]
		if f := p.frame(id); f != nil {
			if img := f.img.Load(); img != nil {
				b.highKey, b.hasHigh, b.known = img.highKey, img.hasHigh, true
			}
		}
		return b
	}
	for _, s := range splits {
		l := find(s.left)
		lHigh, lHas := l.highKey, l.hasHigh
		r := find(s.right)
		r.highKey, r.hasHigh, r.known = lHigh, lHas, true
		l = find(s.left) // re-find: the append above may have moved the slice
		l.highKey, l.hasHigh, l.known = s.sep, true, true
	}
	return bounds
}
