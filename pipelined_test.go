package patree

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/patree/patree/internal/nvme"
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
			db, err := Open(Options{
				DeviceBlocks: 1 << 16,
				Shards:       n,
				BufferPages:  8, // tiny: scans miss, so read-ahead fires
				Journal:      true,
			})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer db.Close()
			ops := 2000
			if testing.Short() {
				ops = 500
			}
			model := runShardedOps(t, db, n, int64(8800+n), ops)
			st := db.Stats()
			if st.NumKeys != uint64(len(model)) {
				t.Fatalf("shards=%d: Stats.NumKeys = %d, oracle %d", n, st.NumKeys, len(model))
			}
			// Sharding splits the key space, so at 4 shards each tree fits
			// its buffer and there is nothing to read ahead; only the
			// 1-shard run is guaranteed to miss.
			if n == 1 && st.ReadAheads == 0 {
				t.Fatalf("shards=%d: DB issued no read-aheads: %+v", n, st)
			}
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

// FuzzPipelinedOps is FuzzShardedOps with scans reading ahead: a byte
// stream becomes point ops and scans over a journaled 4-shard DB with a
// small buffer, checked against a flat map oracle, with a close/reopen
// cycle asserting that multi-block read-aheads and the journal's written
// back pages never corrupt the persisted image. The full scan after the
// reopen starts cold, so any shard with a level-1 parent must read
// ahead. CI runs this for a bounded smoke window on every push.
func FuzzPipelinedOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 0, 1, 5, 2, 0, 1, 0})
	f.Add([]byte{4, 1, 0, 3, 0, 1, 0, 7, 3, 0, 0, 0, 2, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 2, 3, 9, 1, 2, 3, 0, 4, 0, 200, 3}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		const chunk = 4
		ops := len(data) / chunk
		if ops == 0 {
			t.Skip()
		}
		if ops > 400 {
			ops = 400
		}
		dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 15})
		defer dev.Close()
		open := func() *DB {
			db, err := Open(Options{
				Device:      dev,
				Shards:      4,
				BufferPages: 8,
				Journal:     true,
			})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return db
		}
		db := open()
		model := map[uint64][]byte{}
		for i := 0; i < ops; i++ {
			b := data[i*chunk : (i+1)*chunk]
			key := 1 + uint64(b[1])%200 + uint64(b[2])%50*7
			// Padded values give a shard several leaves within 400 ops.
			val := append(bytes.Repeat([]byte{b[3]}, 40), byte(key), byte(i))
			switch b[0] % 6 {
			case 0, 1: // put
				if err := db.Put(key, val); err != nil {
					t.Fatalf("op %d: put %d: %v", i, key, err)
				}
				model[key] = append([]byte(nil), val...)
			case 2: // delete
				_, existed := model[key]
				found, err := db.Delete(key)
				if err != nil {
					t.Fatalf("op %d: delete %d: %v", i, key, err)
				}
				if found != existed {
					t.Fatalf("op %d: delete %d found=%v, model %v", i, key, found, existed)
				}
				delete(model, key)
			case 3: // get
				want, existed := model[key]
				v, found, err := db.Get(key)
				if err != nil {
					t.Fatalf("op %d: get %d: %v", i, key, err)
				}
				if found != existed || (existed && !bytes.Equal(v, want)) {
					t.Fatalf("op %d: get %d = %q/%v, model %q/%v", i, key, v, found, want, existed)
				}
			case 4: // update
				_, existed := model[key]
				found, err := db.Update(key, val)
				if err != nil {
					t.Fatalf("op %d: update %d: %v", i, key, err)
				}
				if found != existed {
					t.Fatalf("op %d: update %d found=%v, model %v", i, key, found, existed)
				}
				if existed {
					model[key] = append([]byte(nil), val...)
				}
			default: // scan
				lo := uint64(b[1])
				hi := lo + uint64(b[3])*3
				limit := int(b[2]) % 5 // 0 = all
				pairs, err := db.Scan(lo, hi, limit)
				if err != nil {
					t.Fatalf("op %d: scan [%d,%d] limit %d: %v", i, lo, hi, limit, err)
				}
				checkScan(t, fmt.Sprintf("op=%d scan[%d,%d]l%d", i, lo, hi, limit),
					pairs, oracleScan(model, lo, hi, limit))
			}
		}
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		db = open()
		defer db.Close()
		pairs, err := db.Scan(0, ^uint64(0), 0)
		if err != nil {
			t.Fatalf("final scan: %v", err)
		}
		checkScan(t, "after reopen", pairs, oracleScan(model, 0, ^uint64(0), 0))
		if st := db.Stats(); st.Height >= 2 && st.ReadAheads == 0 {
			t.Fatalf("cold full scan over a height-%d shard read nothing ahead", st.Height)
		}
	})
}
