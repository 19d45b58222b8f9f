package lsm

import (
	"encoding/binary"
	"sort"

	"github.com/patree/patree/internal/baseline/syncbtree"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// Config parameterizes the LSM tree.
type Config struct {
	// Persistence: strong flushes the WAL (plus a device flush — the
	// sync() LevelDB issues) on every update; weak flushes on Sync().
	Persistence core.Persistence
	// MemtableBytes triggers a flush to L0 (default 128 KiB).
	MemtableBytes int
	// L0Limit is the number of L0 runs that triggers compaction into L1
	// (default 4, LevelDB's write-slowdown point).
	L0Limit int
	// WALBlocks is the log region size (default 1M blocks).
	WALBlocks uint64
	// CachePages is the read block cache size.
	CachePages int
	// Seed drives the skiplist.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.MemtableBytes <= 0 {
		c.MemtableBytes = 128 << 10
	}
	if c.L0Limit <= 0 {
		c.L0Limit = 4
	}
	if c.WALBlocks == 0 {
		c.WALBlocks = 1 << 20
	}
	return c
}

// Tree is the LSM store. The big-mutex design mirrors LevelDB: writers
// serialize on mu; memtable flushes and compactions run on the thread
// that triggered them (modelling LevelDB's write stalls).
type Tree struct {
	cfg   Config
	io    syncbtree.IO
	cache *syncbtree.Cache
	mu    *simos.Mutex

	mem *skiplist
	log *wal.Log

	l0, l1  []*table // l0 newest first; l1 sorted by minKey, disjoint
	alloc   *spanAlloc
	nextID  uint64
	numKeys int

	walStart uint64

	// Stats.
	Flushes     uint64
	Compactions uint64
}

// New creates an empty LSM tree over dev. The WAL occupies the top
// WALBlocks of the device; tables grow from block 1.
func New(sched *simos.Sched, io syncbtree.IO, dev nvme.Device, cfg Config) *Tree {
	cfg = cfg.withDefaults()
	walStart := dev.NumBlocks() - cfg.WALBlocks
	return &Tree{
		cfg:      cfg,
		io:       io,
		cache:    syncbtree.NewCache(cfg.CachePages, io),
		mu:       sched.NewMutex(),
		mem:      newSkiplist(cfg.Seed ^ 0x15f),
		log:      wal.NewLog(storage.PageSize, cfg.WALBlocks),
		alloc:    newSpanAlloc(1, walStart),
		walStart: walStart,
	}
}

// NumKeys returns the approximate live-key count (inserts minus deletes
// of present keys, counted at memtable level).
func (t *Tree) NumKeys() int { return t.numKeys }

// Levels reports the current (L0, L1) table counts.
func (t *Tree) Levels() (int, int) { return len(t.l0), len(t.l1) }

func encodeWALRec(key uint64, value []byte, tomb bool) []byte {
	rec := make([]byte, 9+len(value))
	if tomb {
		rec[0] = 1
	}
	binary.LittleEndian.PutUint64(rec[1:9], key)
	copy(rec[9:], value)
	return rec
}

// put is the shared write path.
func (t *Tree) put(th *simos.Thread, key uint64, value []byte, tomb bool) error {
	t.mu.Lock(th)
	if _, err := t.log.Append(encodeWALRec(key, value, tomb)); err != nil {
		t.mu.Unlock(th)
		return err
	}
	_, wasTomb, existed := t.mem.get(key)
	t.mem.put(key, append([]byte(nil), value...), tomb)
	if tomb {
		if !existed || !wasTomb {
			t.numKeys--
		}
	} else if !existed || wasTomb {
		t.numKeys++
	}
	th.Work(metrics.CatRealWork, 400)
	var err error
	if t.mem.bytes >= t.cfg.MemtableBytes {
		err = t.flushMemtable(th)
	}
	t.mu.Unlock(th)
	if err != nil {
		return err
	}
	if t.cfg.Persistence == core.StrongPersistence {
		// LevelDB with sync=true: every write costs a log write + fsync.
		t.mu.Lock(th)
		err = syncbtree.FlushLog(th, t.io, t.log, t.walStart)
		t.mu.Unlock(th)
	}
	return err
}

// Put inserts or replaces a key.
func (t *Tree) Put(th *simos.Thread, key uint64, value []byte) error {
	return t.put(th, key, value, false)
}

// Delete writes a tombstone.
func (t *Tree) Delete(th *simos.Thread, key uint64) error {
	return t.put(th, key, nil, true)
}

// flushMemtable dumps the memtable as a new L0 run (mu held).
func (t *Tree) flushMemtable(th *simos.Thread) error {
	var entries []entry
	for n := t.mem.first(); n != nil; n = n.next[0] {
		entries = append(entries, entry{key: n.key, value: n.value, tombstone: n.tombstone})
	}
	if len(entries) == 0 {
		return nil
	}
	t.nextID++
	tbl, err := writeTable(th, t.io, t.alloc, t.nextID, entries)
	if err != nil {
		return err
	}
	// The WAL content is now redundant: flush it once (cheap) and reset.
	if err := syncbtree.FlushLog(th, t.io, t.log, t.walStart); err != nil {
		return err
	}
	if err := syncbtree.ResetLog(th, t.io, t.log, t.walStart); err != nil {
		return err
	}
	t.mem = newSkiplist(t.cfg.Seed ^ t.nextID)
	t.l0 = append([]*table{tbl}, t.l0...)
	t.Flushes++
	if len(t.l0) >= t.cfg.L0Limit {
		return t.compact(th)
	}
	return nil
}

// compact merges all L0 runs with the overlapping part of L1 into fresh
// disjoint L1 tables (mu held).
func (t *Tree) compact(th *simos.Thread) error {
	lo, hi := ^uint64(0), uint64(0)
	for _, tb := range t.l0 {
		if tb.minKey < lo {
			lo = tb.minKey
		}
		if tb.maxKey > hi {
			hi = tb.maxKey
		}
	}
	var keep, merge []*table
	for _, tb := range t.l1 {
		if tb.overlaps(lo, hi) {
			merge = append(merge, tb)
		} else {
			keep = append(keep, tb)
		}
	}
	// Sources ordered newest-first: L0 runs (already newest-first), then
	// the old L1 tables (older than any L0).
	sources := append(append([]*table(nil), t.l0...), merge...)
	merged, err := t.mergeTables(th, sources)
	if err != nil {
		return err
	}
	// Write merged entries as ~256-block tables, dropping tombstones
	// (single-level compaction makes this safe: nothing older remains).
	var newTables []*table
	var cur []entry
	curBytes := 0
	emit := func() error {
		if len(cur) == 0 {
			return nil
		}
		t.nextID++
		tbl, err := writeTable(th, t.io, t.alloc, t.nextID, cur)
		if err != nil {
			return err
		}
		newTables = append(newTables, tbl)
		cur = nil
		curBytes = 0
		return nil
	}
	for _, e := range merged {
		if e.tombstone {
			continue
		}
		cur = append(cur, e)
		curBytes += entrySize(e)
		if curBytes >= 256*storage.PageSize {
			if err := emit(); err != nil {
				return err
			}
		}
	}
	if err := emit(); err != nil {
		return err
	}
	// Retire the inputs.
	for _, tb := range sources {
		t.alloc.release(tb.startBlock, tb.numBlocks)
	}
	t.l0 = nil
	t.l1 = append(keep, newTables...)
	sort.Slice(t.l1, func(i, j int) bool { return t.l1[i].minKey < t.l1[j].minKey })
	t.Compactions++
	th.Work(metrics.CatRealWork, 20000)
	return nil
}

// mergeTables performs an n-way merge; sources must be ordered newest
// first (earlier sources win on duplicate keys).
func (t *Tree) mergeTables(th *simos.Thread, sources []*table) ([]entry, error) {
	var lists [][]entry
	for _, tb := range sources {
		es, err := t.readAll(th, tb)
		if err != nil {
			return nil, err
		}
		lists = append(lists, es)
	}
	var out []entry
	mergeEntryLists(lists, func(e entry) bool {
		out = append(out, e)
		return true
	})
	return out, nil
}

// mergeEntryLists k-way merges entry lists ordered newest first: the
// newest occurrence of each key wins and shadows the rest. emit returns
// false to stop early.
func mergeEntryLists(lists [][]entry, emit func(entry) bool) {
	core.MergeRuns(len(lists),
		func(i int) int { return len(lists[i]) },
		func(i, j int) uint64 { return lists[i][j].key },
		true,
		func(i, j int) bool { return emit(lists[i][j]) })
}

// readAll loads every entry of a table.
func (t *Tree) readAll(th *simos.Thread, tb *table) ([]entry, error) {
	var out []entry
	for b := uint64(0); b < tb.numBlocks; b++ {
		es, err := t.readBlock(th, tb.startBlock+b)
		if err != nil {
			return nil, err
		}
		out = append(out, es...)
	}
	return out, nil
}

func (t *Tree) readBlock(th *simos.Thread, blk uint64) ([]entry, error) {
	if data, ok := t.cache.Get(storage.PageID(blk)); ok {
		th.Work(metrics.CatRealWork, 300)
		return decodeBlock(data)
	}
	buf := make([]byte, storage.PageSize)
	if err := t.io.Read(th, blk, buf); err != nil {
		return nil, err
	}
	if err := t.cache.FillOnRead(th, storage.PageID(blk), buf); err != nil {
		return nil, err
	}
	th.Work(metrics.CatRealWork, 300)
	return decodeBlock(buf)
}

// searchTable looks key up in one table.
func (t *Tree) searchTable(th *simos.Thread, tb *table, key uint64) ([]byte, bool, bool, error) {
	if key < tb.minKey || key > tb.maxKey {
		return nil, false, false, nil
	}
	es, err := t.readBlock(th, tb.startBlock+uint64(tb.blockFor(key)))
	if err != nil {
		return nil, false, false, err
	}
	i := sort.Search(len(es), func(i int) bool { return es[i].key >= key })
	if i < len(es) && es[i].key == key {
		return es[i].value, es[i].tombstone, true, nil
	}
	return nil, false, false, nil
}

// Get returns the value for key.
func (t *Tree) Get(th *simos.Thread, key uint64) ([]byte, bool, error) {
	t.mu.Lock(th)
	if v, tomb, ok := t.mem.get(key); ok {
		t.mu.Unlock(th)
		th.Work(metrics.CatRealWork, 300)
		return v, !tomb, nil
	}
	l0 := append([]*table(nil), t.l0...)
	l1 := append([]*table(nil), t.l1...)
	t.mu.Unlock(th)
	for _, tb := range l0 {
		v, tomb, found, err := t.searchTable(th, tb, key)
		if err != nil {
			return nil, false, err
		}
		if found {
			return v, !tomb, nil
		}
	}
	// L1 tables are disjoint; binary-search the covering table.
	i := sort.Search(len(l1), func(i int) bool { return l1[i].minKey > key })
	if i > 0 {
		v, tomb, found, err := t.searchTable(th, l1[i-1], key)
		if err != nil {
			return nil, false, err
		}
		if found {
			return v, !tomb, nil
		}
	}
	return nil, false, nil
}

// RangeScan merges the memtable and all tables over [lo, hi].
func (t *Tree) RangeScan(th *simos.Thread, lo, hi uint64, limit int) ([]core.KV, error) {
	t.mu.Lock(th)
	var lists [][]entry
	var memEntries []entry
	for n := t.mem.seek(lo); n != nil && n.key <= hi; n = n.next[0] {
		memEntries = append(memEntries, entry{key: n.key, value: n.value, tombstone: n.tombstone})
	}
	lists = append(lists, memEntries)
	l0 := append([]*table(nil), t.l0...)
	l1 := append([]*table(nil), t.l1...)
	t.mu.Unlock(th)

	collect := func(tb *table) error {
		if !tb.overlaps(lo, hi) {
			return nil
		}
		var es []entry
		for b := uint64(tb.blockFor(lo)); b < tb.numBlocks; b++ {
			blockEs, err := t.readBlock(th, tb.startBlock+b)
			if err != nil {
				return err
			}
			stop := false
			for _, e := range blockEs {
				if e.key > hi {
					stop = true
					break
				}
				if e.key >= lo {
					es = append(es, e)
				}
			}
			if stop {
				break
			}
		}
		lists = append(lists, es)
		return nil
	}
	for _, tb := range l0 {
		if err := collect(tb); err != nil {
			return nil, err
		}
	}
	for _, tb := range l1 {
		if err := collect(tb); err != nil {
			return nil, err
		}
	}
	// Merge newest-first (memtable first, then L0 newest-first, then L1).
	var out []core.KV
	mergeEntryLists(lists, func(e entry) bool {
		if !e.tombstone {
			out = append(out, core.KV{Key: e.key, Value: e.value})
			if limit > 0 && len(out) >= limit {
				return false
			}
		}
		return true
	})
	return out, nil
}

// SetPersistence switches the persistence mode, returning the previous
// one; the harness loads with weak persistence and measures in the
// target mode.
func (t *Tree) SetPersistence(p core.Persistence) core.Persistence {
	old := t.cfg.Persistence
	t.cfg.Persistence = p
	return old
}

// Sync makes all buffered updates durable (weak persistence's sync()).
func (t *Tree) Sync(th *simos.Thread) error {
	t.mu.Lock(th)
	err := syncbtree.FlushLog(th, t.io, t.log, t.walStart)
	t.mu.Unlock(th)
	return err
}
