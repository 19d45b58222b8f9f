package buffer

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/patree/patree/internal/storage"
)

func pid(i int) storage.PageID { return storage.PageID(i) }

func TestReadOnlyBasicHitMiss(t *testing.T) {
	b := New(2)
	if _, ok := b.Get(pid(1)); ok {
		t.Fatal("hit on empty buffer")
	}
	b.FillOnRead(pid(1), []byte("one"))
	got, ok := b.Get(pid(1))
	if !ok || string(got) != "one" {
		t.Fatalf("get = %q, %v", got, ok)
	}
	st := b.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
}

// remove drops id from the index and its segment, as an eviction does.
func (l *slru) remove(id storage.PageID) {
	if e, _ := l.m.Get(id); e != nil {
		l.unlink(e)
		l.m.Delete(id)
	}
}

// TestIndexBoundedByCapacity churns 100 × capacity distinct pages through
// clean fills and dirtying writes: the index's slot array is sized by the
// pages it holds, at most capacity+1, not by how many pages it has seen.
func TestIndexBoundedByCapacity(t *testing.T) {
	const capacity = 64
	clean, dirty := New(capacity), New(capacity)
	for id := 0; id < 100*capacity; id++ {
		clean.FillOnRead(pid(id), nil)
		dirty.Write(pid(id), nil)
		if id%3 == 0 {
			clean.l.remove(pid(id - 1))
			dirty.l.remove(pid(id - 1))
		}
	}
	for _, l := range []*slru{clean.l, dirty.l} {
		if l.m.Len() > capacity || l.m.Slots() > 4*capacity {
			t.Fatalf("%d pages in %d index slots, want at most %d in at most %d", l.m.Len(), l.m.Slots(), capacity, 4*capacity)
		}
	}
}

// TestGetHitAllocs pins that a buffer hit allocates nothing, on a clean
// page and on a dirty one.
func TestGetHitAllocs(t *testing.T) {
	b := New(4)
	b.FillOnRead(pid(1), []byte("one"))
	b.Write(pid(2), []byte("two"))
	if n := testing.AllocsPerRun(100, func() {
		b.Get(pid(1))
		b.Get(pid(2))
	}); n != 0 {
		t.Fatalf("buffer hit allocates %v times, want 0", n)
	}
}

// cached lists which of ids b holds, without touching recency.
func cached(b interface{ Contains(storage.PageID) bool }, ids ...int) []int {
	var out []int
	for _, id := range ids {
		if b.Contains(pid(id)) {
			out = append(out, id)
		}
	}
	return out
}

// touch looks id up and fills it on a miss, as the tree does: one
// reference, counted by the sketch.
func touch(b *Buffer, id int) {
	if _, ok := b.Get(pid(id)); !ok {
		b.FillOnRead(pid(id), []byte{byte(id)})
	}
}

// TestReadOnlyLRUEviction pins the eviction order at capacity 3: a
// one-page window in front of a two-page main whose protected segment
// holds one. A new page enters the window and pushes the window's tail
// out as the candidate. While main has room the candidate enters it;
// once main is full, the candidate replaces main's probation tail only
// if it was looked up more often, and is otherwise the page evicted.
// A hit in probation promotes; protected overflow demotes its tail to
// the probation head.
func TestReadOnlyLRUEviction(t *testing.T) {
	b := New(3)
	touch(b, 1)
	touch(b, 2)
	touch(b, 3) // window: 3; probation: 2, 1
	touch(b, 4) // candidate 3 (1 lookup) is no more popular than victim 1
	if got := fmt.Sprint(cached(b, 1, 2, 3, 4)); got != "[1 2 4]" {
		t.Fatalf("after 4: cached %s, want [1 2 4]", got)
	}
	touch(b, 3) // 3's second lookup: candidate 4 is refused
	touch(b, 5) // candidate 3 (2 lookups) evicts victim 1 (1 lookup)
	if got := fmt.Sprint(cached(b, 1, 2, 3, 4, 5)); got != "[2 3 5]" {
		t.Fatalf("after 5: cached %s, want [2 3 5]", got)
	}
	b.Get(pid(2)) // protected: 2
	b.Get(pid(3)) // protected: 3; 2 is demoted to the probation head
	if got := fmt.Sprint(b.l.segs[probation].next.id, b.l.segs[protected].next.id); got != "2 3" {
		t.Fatalf("probation head, protected head = %s, want 2 3", got)
	}
	st := b.Stats()
	if st.Evictions != 3 || st.AdmissionRejects != 2 || st.Hits != 2 || st.Misses != 6 {
		t.Fatalf("stats = %+v, want 3 evictions (2 refused candidates), 2 hits, 6 misses", st)
	}
}

// A page looked up twice, by its miss and by a hit in main, is
// protected: no stream of pages looked up once (a cold scan, a run of
// point misses) can evict it, and neither can a stream of writes, which
// are no references at all.
func TestSingleTouchFillsKeepProtectedPage(t *testing.T) {
	const capacity = 10
	b := New(capacity)
	touch(b, 1)
	touch(b, 2) // pushes 1 from the window into main
	b.Get(pid(1))
	for id := 100; id < 100+100*capacity; id++ {
		touch(b, id)
		if !b.Contains(pid(1)) {
			t.Fatalf("page looked up twice evicted by single-touch fill %d", id)
		}
	}
	for id := 5000; id < 5000+10*capacity; id++ {
		b.Write(pid(id), []byte("w"))
		if !b.Contains(pid(1)) {
			t.Fatalf("page looked up twice evicted by write %d", id)
		}
	}
}

// Write and a write-through refill (FillOnRead after a write completed)
// update a cached page in place: the op that writes a page has already
// looked it up, so the write is not a second reference. It neither moves
// the page nor counts in the sketch.
func TestWriteDoesNotPromote(t *testing.T) {
	for _, write := range []func(*Buffer, storage.PageID, []byte) (Dirty, bool){
		(*Buffer).FillOnRead, (*Buffer).Write,
	} {
		b := New(3)
		touch(b, 1)
		touch(b, 2)
		touch(b, 3) // window: 3; probation: 2, 1
		for range 5 {
			write(b, pid(1), []byte("1'"))
		}
		touch(b, 3) // 3's second lookup
		// Candidate 3 (2 lookups) evicts 1 (1 lookup): had the writes
		// refreshed 1, the victim would be 2; had they counted, 1 would
		// outrank 3.
		victim, ev := b.FillOnRead(pid(4), []byte("4"))
		if got := fmt.Sprint(cached(b, 1, 2, 3, 4)); got != "[2 3 4]" {
			t.Fatalf("cached %s, want [2 3 4]: a write promoted, refreshed or counted page 1", got)
		}
		if dirty := b.Stats().DirtyEvictions == 1; ev != dirty || dirty && (victim.ID != pid(1) || string(victim.Data) != "1'") {
			t.Fatalf("victim = %+v, %v; stats %+v", victim, ev, b.Stats())
		}
	}
}

// A read-ahead fill is not a reference, and the filter never refuses a
// prefetched page no lookup has touched: its scan has not reached it.
// Its first hit is its first reference, so it does not promote; only
// the second does.
func TestPrefetchFirstHitStaysInProbation(t *testing.T) {
	b := New(3)
	touch(b, 1)
	touch(b, 1)
	touch(b, 2)
	touch(b, 2) // window: 2; probation: 1, both looked up twice
	b.FillOnRead(pid(8), []byte("8"))
	touch(b, 3) // candidate 8, never looked up, is refused
	b.FillOnPrefetch(pid(9), []byte("9"))
	touch(b, 4) // candidate 9, never looked up either, is admitted
	if got := fmt.Sprint(cached(b, 1, 2, 3, 4, 8, 9)); got != "[2 4 9]" {
		t.Fatalf("cached %s, want [2 4 9]: the untouched prefetched page was refused", got)
	}
	b.Get(pid(9)) // first reference: 9 stays in probation
	if e := b.l.peek(pid(9)); e.seg != probation {
		t.Fatalf("prefetched page in segment %d after its first hit, want probation", e.seg)
	}
	b.Get(pid(9)) // second reference: protected
	for id := 10; id < 100; id++ {
		touch(b, id)
	}
	if !b.Contains(pid(9)) {
		t.Fatal("prefetched page looked up twice was not protected")
	}
}

// Contains and DirtyImage touch neither recency nor the sketch, and
// count no lookup.
func TestContainsHasNoSideEffects(t *testing.T) {
	b := New(3)
	touch(b, 1)
	touch(b, 2)
	touch(b, 3) // window: 3; probation: 2, 1
	for range 5 {
		if !b.Contains(pid(1)) || b.Contains(pid(9)) {
			t.Fatal("Contains wrong")
		}
		b.DirtyImage(pid(1))
	}
	touch(b, 3)
	touch(b, 4) // candidate 3 (2 lookups) evicts victim 1 (1 lookup)
	if got := fmt.Sprint(cached(b, 1, 2, 3, 4)); got != "[2 3 4]" {
		t.Fatalf("cached %s, want [2 3 4]: Contains refreshed or counted page 1", got)
	}
	if st := b.Stats(); st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("Contains counted lookups: %+v", st)
	}
}

func TestReadOnlyZeroCapacityDisabled(t *testing.T) {
	b := New(0)
	b.FillOnRead(pid(1), []byte("1"))
	if b.Len() != 0 {
		t.Fatal("zero-capacity buffer cached a page")
	}
	if _, ok := b.Get(pid(1)); ok {
		t.Fatal("zero-capacity buffer hit")
	}
	if b.l.sketch != nil {
		t.Fatal("zero-capacity buffer allocated a sketch")
	}
}

func TestReadOnlyWriteCompleteUpdates(t *testing.T) {
	b := New(4)
	b.FillOnRead(pid(1), []byte("old"))
	b.FillOnRead(pid(1), []byte("new")) // the write-through write completed
	got, _ := b.Get(pid(1))
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
	if b.Len() != 1 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestReadWriteDirtyLifecycle(t *testing.T) {
	b := New(4)
	if _, ev := b.Write(pid(1), []byte("v1")); ev {
		t.Fatal("unexpected eviction")
	}
	if b.DirtyCount() != 1 {
		t.Fatalf("dirty = %d", b.DirtyCount())
	}
	dirty := b.DirtyPages()
	if len(dirty) != 1 || dirty[0].ID != pid(1) || string(dirty[0].Data) != "v1" {
		t.Fatalf("dirty pages = %+v", dirty)
	}
	b.MarkClean(pid(1), dirty[0].Epoch)
	if b.DirtyCount() != 0 {
		t.Fatal("MarkClean did not clean")
	}
	// Page stays cached after cleaning.
	if got, ok := b.Get(pid(1)); !ok || string(got) != "v1" {
		t.Fatal("clean page lost")
	}
}

func TestReadWriteMarkCleanEpochGuard(t *testing.T) {
	b := New(4)
	b.Write(pid(1), []byte("v1"))
	snap := b.DirtyPages()
	// A second write lands between snapshot and write-back completion.
	b.Write(pid(1), []byte("v2"))
	b.MarkClean(pid(1), snap[0].Epoch)
	if b.DirtyCount() != 1 {
		t.Fatal("stale MarkClean wiped a newer update")
	}
	cur := b.DirtyPages()
	b.MarkClean(pid(1), cur[0].Epoch)
	if b.DirtyCount() != 0 {
		t.Fatal("current-epoch MarkClean failed")
	}
}

func TestReadWriteWriteMergeCounting(t *testing.T) {
	b := New(4)
	b.Write(pid(1), []byte("a"))
	b.Write(pid(1), []byte("b"))
	b.Write(pid(1), []byte("c"))
	if got := b.Stats().WriteMerges; got != 2 {
		t.Fatalf("write merges = %d, want 2", got)
	}
	got, _ := b.Get(pid(1))
	if string(got) != "c" {
		t.Fatalf("content = %q", got)
	}
}

// The filter never refuses a dirty candidate: write-backs stay what the
// writes make them. A dirty victim is handed back; a clean one is not.
func TestReadWriteEvictionReturnsDirtyVictim(t *testing.T) {
	b := New(3)
	b.Write(pid(1), []byte("1"))
	touch(b, 2)
	touch(b, 2)
	touch(b, 3)
	touch(b, 3) // window: 3; probation: 2, 1
	// Candidate 3 (2 lookups) evicts dirty page 1 (none).
	victim, ev := b.Write(pid(4), []byte("4"))
	if !ev || victim.ID != pid(1) || string(victim.Data) != "1" {
		t.Fatalf("victim = %+v, %v", victim, ev)
	}
	// Dirty candidate 4, never looked up, is admitted over clean page 2.
	if _, ev := b.Write(pid(5), []byte("5")); ev {
		t.Fatal("clean victim surfaced as dirty")
	}
	if got := fmt.Sprint(cached(b, 2, 3, 4, 5)); got != "[3 4 5]" {
		t.Fatalf("cached %s, want [3 4 5]: the dirty candidate was refused", got)
	}
	if st := b.Stats(); st.Evictions != 2 || st.DirtyEvictions != 1 || st.AdmissionRejects != 0 {
		t.Fatalf("stats = %+v, want 2 evictions, 1 dirty, none refused", st)
	}
}

// Two buffers fed the same calls evict the same pages: the sketch's hash
// is fixed, so a simulated schedule replays bit for bit.
func TestSameCallsSameEvictions(t *testing.T) {
	order := func(b *Buffer) string {
		var ids []storage.PageID
		b.l.coldestFirst(func(e *entry) { ids = append(ids, e.id) })
		return fmt.Sprint(ids, b.Stats())
	}
	r := &splitmix{s: 7}
	x, y := New(32), New(32)
	for i := range 20_000 {
		id, val := pid(int(r.next()%200)), []byte{byte(i)}
		for _, b := range []*Buffer{x, y} {
			switch i % 4 {
			case 0:
				b.Write(id, val)
			case 1:
				b.FillOnPrefetch(id, val)
			default:
				touch(b, int(id))
			}
		}
		if order(x) != order(y) {
			t.Fatalf("call %d: %s\nvs %s", i, order(x), order(y))
		}
	}
}

// DirtyPages walks both segments in eviction order: probation tail to
// head, then protected tail to head. Clean pages are skipped.
func TestDirtyPagesColdestFirst(t *testing.T) {
	b := New(8)
	for id := 1; id <= 5; id++ {
		b.Write(pid(id), []byte{byte(id)})
	}
	b.FillOnRead(pid(6), []byte("6"))
	b.Get(pid(1)) // protected: 1
	b.Get(pid(6)) // protected: 6, 1
	b.Get(pid(3)) // protected: 3, 6, 1
	var ids []storage.PageID
	for _, d := range b.DirtyPages() {
		ids = append(ids, d.ID)
	}
	if got := fmt.Sprint(ids); got != "[2 4 5 1 3]" {
		t.Fatalf("order = %s, want [2 4 5 1 3]", got)
	}
	if b.DirtyCount() != 5 {
		t.Fatalf("dirty count = %d, want 5", b.DirtyCount())
	}
}

// segmentsIntact reports whether l's three lists hold exactly its indexed
// pages, each once, the window and the protected one as many as they
// count and no more than their shares.
func segmentsIntact(l *slru) bool {
	seen, n := map[storage.PageID]bool{}, [3]int{}
	ok := true
	l.coldestFirst(func(e *entry) {
		got, _ := l.m.Get(e.id)
		ok = ok && !seen[e.id] && got == e
		seen[e.id] = true
		n[e.seg]++
	})
	return ok && len(seen) == l.m.Len() && n[window] == l.nWindow && n[window] <= l.winCap &&
		n[protected] == l.nProtected && n[protected] <= l.protCap
}

// Property: cache never exceeds capacity, its segments stay intact, and a
// Get after Fill returns the last value written for that id (whichever of
// Write/FillOnRead/FillOnPrefetch came last) as long as the page was not
// evicted.
func TestBufferConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const capacity = 8
		b := New(capacity)
		shadow := map[storage.PageID][]byte{} // last value per id
		for _, o := range ops {
			id := pid(int(o % 16))
			val := []byte{byte(o >> 8)}
			switch (o / 16) % 4 {
			case 0:
				b.Write(id, val)
				shadow[id] = val
			case 1:
				b.FillOnRead(id, val)
				shadow[id] = val
			case 2:
				b.FillOnPrefetch(id, val)
				shadow[id] = val
			case 3:
				// Gets move pages between the segments.
				if got, ok := b.Get(id); ok {
					want := shadow[id]
					if want == nil || got[0] != want[0] {
						return false
					}
				}
			}
			if b.Len() > capacity || !segmentsIntact(b.l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: no dirty data is ever silently lost — every dirtying Write is
// either still dirty in the buffer, or was handed out via eviction /
// invalidation, or superseded by a newer write to the same page.
func TestNoSilentDirtyLossProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		const capacity = 4
		b := New(capacity)
		pending := map[storage.PageID]bool{} // dirty writes not yet accounted
		for _, o := range ops {
			id := pid(int(o % 8))
			switch (o / 8) % 4 {
			case 0:
				if v, ev := b.Write(id, []byte{byte(o)}); ev {
					delete(pending, v.ID)
				}
				pending[id] = true
			case 1, 2:
				// The tree only fills pages it had to read from the device,
				// i.e. pages not currently buffered dirty; mirror that here.
				if pending[id] {
					continue
				}
				fill := b.FillOnRead
				if (o/8)%4 == 2 {
					fill = b.FillOnPrefetch
				}
				if v, ev := fill(id, []byte{byte(o)}); ev {
					delete(pending, v.ID)
				}
			case 3:
				b.Get(id) // promotes and demotes
			}
			// Every pending page must still be dirty in the buffer.
			dirtyNow := map[storage.PageID]bool{}
			for _, d := range b.DirtyPages() {
				dirtyNow[d.ID] = true
			}
			for id := range pending {
				if !dirtyNow[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
