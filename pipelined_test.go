package patree

import (
	"fmt"
	"testing"

	"github.com/patree/patree/internal/storage"
)

// TestPipelinedPropertyOps runs the randomized oracle stream over a
// journaled DB with a tiny buffer, so scans miss and read their leaf runs
// ahead (what Open always does), over 1 and 4 shards. The public surface
// must be indistinguishable from the classic path.
func TestPipelinedPropertyOps(t *testing.T) {
	for _, n := range []int{1, 4} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			t.Parallel()
			ops := 2000
			if testing.Short() {
				ops = 500
			}
			runOracle(t, randomStream(int64(8800+n), ops), dbTarget{shards: n, devices: 1, journal: true, buffer: 8, sp: mixed,
				check: func(t *testing.T, db *DB, model map[uint64][]byte) {
					st := db.Stats()
					if st.NumKeys != uint64(len(model)) {
						t.Fatalf("shards=%d: Stats.NumKeys = %d, oracle %d", n, st.NumKeys, len(model))
					}
					// Sharding splits the key space, so at 4 shards each tree
					// fits its buffer and there is nothing to read ahead; only
					// the 1-shard run is guaranteed to miss.
					if n == 1 && st.ReadAheads == 0 {
						t.Fatalf("shards=%d: DB issued no read-aheads: %+v", n, st)
					}
				}})
		})
	}
}

// TestOpenReadsAhead pins the serving profile: a zero-Options Open reads
// a cold scan's leaves ahead, and since a bulk load lays a parent's leaves
// out on adjacent pages, a run of them costs one command. The scan issues
// fewer reads, inner pages included, than it visits leaves.
func TestOpenReadsAhead(t *testing.T) {
	dev := loadedRAM(t, 5000)
	const lo, hi = 1000, 1059
	leaves := 0
	buf := make([]byte, storage.PageSize)
	for lba := uint64(1); lba < 1<<12; lba++ {
		dev.ReadAt(lba, buf)
		if !storage.VerifyPage(storage.PageID(lba), buf) {
			continue
		}
		n, err := storage.DecodeNode(storage.PageID(lba), buf)
		if err == nil && n.IsLeaf() && len(n.Keys) > 0 && n.Keys[0] <= hi && n.Keys[len(n.Keys)-1] >= lo {
			leaves++
		}
	}
	db, err := Open(Options{Device: dev})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	before := db.Stats()
	pairs, err := db.Scan(lo, hi, 0)
	if err != nil || len(pairs) != hi-lo+1 {
		t.Fatalf("scan returned %d pairs, err %v", len(pairs), err)
	}
	st := db.Stats()
	reads := st.ReadsIssued - before.ReadsIssued
	if st.ReadAheads == before.ReadAheads || leaves < 2 || reads >= uint64(leaves) {
		t.Fatalf("cold scan over %d leaves: %d reads, %d of them read-ahead commands",
			leaves, reads, st.ReadAheads-before.ReadAheads)
	}
}

// FuzzPipelinedOps runs the fuzzed op stream through a journaled
// 4-shard DB with a small buffer, so scans read ahead, with a close/reopen
// cycle asserting that multi-block read-aheads and the journal's written
// back pages never corrupt the persisted image. The full scan after the
// reopen starts cold, so any shard with a level-1 parent must read ahead.
func FuzzPipelinedOps(f *testing.F) {
	addStreamSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOracle(t, data, 400, dbTarget{shards: 4, devices: 1, journal: true, buffer: 8, sp: mixed, reopen: true,
			check: func(t *testing.T, db *DB, _ map[uint64][]byte) {
				if st := db.Stats(); st.Height >= 2 && st.ReadAheads == 0 {
					t.Fatalf("cold full scan over a height-%d shard read nothing ahead", st.Height)
				}
			}})
	})
}
