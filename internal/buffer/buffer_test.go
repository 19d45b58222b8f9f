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

// TestReadOnlyLRUEviction pins the segmented eviction order: probation
// tail first, even when a protected page is older; a protected page
// overflowing its segment is demoted to the probation head, and leaves
// from there.
func TestReadOnlyLRUEviction(t *testing.T) {
	b := New(3) // protected holds 2
	b.FillOnRead(pid(1), []byte("1"))
	b.Get(pid(1)) // second reference: 1 is protected
	b.FillOnRead(pid(2), []byte("2"))
	b.FillOnRead(pid(3), []byte("3"))
	b.FillOnRead(pid(4), []byte("4")) // evicts 2, not the older 1
	if got := fmt.Sprint(cached(b, 1, 2, 3, 4)); got != "[1 3 4]" {
		t.Fatalf("after filling 4: cached %s, want [1 3 4]", got)
	}
	b.Get(pid(4)) // protected: 4, 1
	b.Get(pid(3)) // protected: 3, 4; 1 is demoted to the probation head
	b.FillOnRead(pid(5), []byte("5"))
	if got := fmt.Sprint(cached(b, 1, 3, 4, 5)); got != "[3 4 5]" {
		t.Fatalf("after filling 5: cached %s, want [3 4 5]", got)
	}
	if st := b.Stats(); st.Evictions != 2 || st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 2 evictions, 3 hits, 0 misses", st)
	}
}

// A stream of pages touched once (a cold scan, a run of point misses)
// cannot evict a page that was referenced twice.
func TestSingleTouchFillsKeepProtectedPage(t *testing.T) {
	b := New(10)
	b.FillOnRead(pid(1), []byte("hot"))
	b.Get(pid(1))
	for id := 100; id < 200; id++ {
		b.Get(pid(id)) // the lookup that misses is the page's one reference
		b.FillOnRead(pid(id), []byte("cold"))
		if !b.Contains(pid(1)) {
			t.Fatalf("page referenced twice evicted by single-touch fill %d", id)
		}
	}
	for id := 100; id < 200; id += 3 {
		b.Write(pid(id), []byte("w")) // writes: no reference either
	}
	if !b.Contains(pid(1)) {
		t.Fatal("page referenced twice evicted by writes")
	}
}

// Write and a write-through refill (FillOnRead after a write completed)
// update a cached page in place: the op that writes a page has already
// looked it up, so the write is not a second reference.
func TestWriteDoesNotPromote(t *testing.T) {
	wt := New(2) // protected holds 1
	wt.FillOnRead(pid(1), []byte("1"))
	wt.FillOnRead(pid(2), []byte("2"))
	wt.FillOnRead(pid(1), []byte("1'"))
	wt.FillOnRead(pid(3), []byte("3"))
	if got := fmt.Sprint(cached(wt, 1, 2, 3)); got != "[2 3]" {
		t.Fatalf("write-through: cached %s, want [2 3]: the refill promoted or refreshed 1", got)
	}

	rw := New(2)
	rw.FillOnRead(pid(1), []byte("1"))
	rw.FillOnRead(pid(2), []byte("2"))
	rw.Write(pid(1), []byte("1'"))
	victim, ev := rw.FillOnRead(pid(3), []byte("3"))
	if !ev || victim.ID != pid(1) || string(victim.Data) != "1'" {
		t.Fatalf("read-write: victim = %+v, %v; want the written page 1", victim, ev)
	}
	if st := rw.Stats(); st.Evictions != 1 || st.DirtyEvictions != 1 {
		t.Fatalf("stats = %+v, want 1 eviction, dirty", st)
	}
}

// A read-ahead fill is not a reference: the first hit on a prefetched
// page leaves it in probation, and only the second promotes it.
func TestPrefetchFirstHitStaysInProbation(t *testing.T) {
	b := New(3) // protected holds 2
	b.FillOnPrefetch(pid(1), []byte("1"))
	b.Get(pid(1)) // first reference
	b.FillOnRead(pid(2), []byte("2"))
	b.FillOnRead(pid(3), []byte("3"))
	b.FillOnRead(pid(4), []byte("4"))
	if b.Contains(pid(1)) {
		t.Fatal("prefetched page promoted by its first hit")
	}

	b.FillOnPrefetch(pid(1), []byte("1"))
	b.Get(pid(1))
	b.Get(pid(1)) // second reference: protected
	for id := 5; id < 10; id++ {
		b.FillOnRead(pid(id), []byte("x"))
	}
	if !b.Contains(pid(1)) {
		t.Fatal("prefetched page referenced twice was not protected")
	}
}

// Contains neither counts a lookup nor refreshes the page.
func TestContainsHasNoSideEffects(t *testing.T) {
	b := New(2)
	b.FillOnRead(pid(1), []byte("1"))
	b.FillOnRead(pid(2), []byte("2"))
	if !b.Contains(pid(1)) || b.Contains(pid(9)) {
		t.Fatal("Contains wrong")
	}
	b.FillOnRead(pid(3), []byte("3"))
	if b.Contains(pid(1)) {
		t.Fatal("Contains refreshed page 1")
	}
	if st := b.Stats(); st.Hits != 0 || st.Misses != 0 {
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

func TestReadWriteEvictionReturnsDirtyVictim(t *testing.T) {
	b := New(2)
	b.Write(pid(1), []byte("1"))
	b.FillOnRead(pid(2), []byte("2"))
	// Insert a third page; LRU victim is dirty page 1.
	victim, ev := b.FillOnRead(pid(3), []byte("3"))
	if !ev || victim.ID != pid(1) || string(victim.Data) != "1" {
		t.Fatalf("victim = %+v, %v", victim, ev)
	}
	// Clean victims are not surfaced.
	_, ev = b.Write(pid(4), []byte("4")) // evicts clean page 2
	if ev {
		t.Fatal("clean victim surfaced as dirty")
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

// segmentsIntact reports whether l's two lists hold exactly its indexed
// pages, each once, the protected one as many as it counts and no more
// than its share.
func segmentsIntact(l *slru) bool {
	seen, prot := map[storage.PageID]bool{}, 0
	ok := true
	l.coldestFirst(func(e *entry) {
		got, _ := l.m.Get(e.id)
		ok = ok && !seen[e.id] && got == e
		seen[e.id] = true
		if e.seg == protected {
			prot++
		}
	})
	return ok && len(seen) == l.m.Len() && prot == l.nProtected && prot <= l.protCap
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
