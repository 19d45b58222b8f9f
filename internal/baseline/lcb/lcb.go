// Package lcb implements the LCB-Tree baseline of the paper's Figure 15:
// a log-based consistent B+ tree following the synchronous execution
// paradigm. Every update is recorded in a write-ahead log before being
// applied to the in-place tree; strong persistence flushes the log on
// every update (one log write + device flush per operation), weak
// persistence flushes on Sync(). The tree itself runs with deferred page
// write-back — the log, not the pages, carries durability, and recovery
// replays the log over the last checkpoint.
//
// The published LCB-Tree uses CAS instructions for latch-freedom; this
// reproduction approximates that with the shared CAS-latch primitive for
// log access and the same latch-coupled tree engine as the other
// baselines (see DESIGN.md §1 for the approximation note).
package lcb

import (
	"encoding/binary"
	"fmt"

	"github.com/patree/patree/internal/baseline/syncbtree"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// Config parameterizes an LCB tree.
type Config struct {
	Persistence core.Persistence
	CachePages  int
	// WALBlocks is the log region size in 512B blocks (default 1M blocks
	// = 512 MB at the top of the device).
	WALBlocks uint64
}

// Tree is the log-based consistent B+ tree.
type Tree struct {
	cfg   Config
	io    syncbtree.IO
	inner *syncbtree.Tree
	log   *wal.Log
	logMu *simos.Mutex

	walStart  uint64
	walBlocks uint64
	updates   uint64
}

// Record opcodes.
const (
	recInsert = 1
	recDelete = 2
)

// New creates an LCB tree over a formatted device region.
func New(sched *simos.Sched, io syncbtree.IO, dev nvme.Device, cfg Config, meta *storage.Meta) *Tree {
	if cfg.WALBlocks == 0 {
		cfg.WALBlocks = 1 << 20
	}
	start := dev.NumBlocks() - cfg.WALBlocks
	return &Tree{
		cfg: cfg,
		io:  io,
		// The inner tree defers page writes (the log provides
		// durability); its cache is the method's 10%-of-index buffer.
		inner: syncbtree.NewTree(sched, io, syncbtree.Config{
			Persistence: core.WeakPersistence,
			CachePages:  cfg.CachePages,
		}, meta),
		log:       wal.NewLog(storage.PageSize, cfg.WALBlocks),
		logMu:     sched.NewMutex(),
		walStart:  start,
		walBlocks: cfg.WALBlocks,
	}
}

// NumKeys returns the key count.
func (t *Tree) NumKeys() uint64 { return t.inner.NumKeys() }

// LatchWaits returns the inner tree's blocked latch acquisitions.
func (t *Tree) LatchWaits() uint64 { return t.inner.LatchWaits() }

func encodeRec(op byte, key uint64, value []byte) []byte {
	rec := make([]byte, 9+len(value))
	rec[0] = op
	binary.LittleEndian.PutUint64(rec[1:9], key)
	copy(rec[9:], value)
	return rec
}

// logUpdate appends a redo record, flushing per the persistence mode.
func (t *Tree) logUpdate(th *simos.Thread, op byte, key uint64, value []byte) error {
	t.logMu.Lock(th)
	defer t.logMu.Unlock(th)
	if _, err := t.log.Append(encodeRec(op, key, value)); err == wal.ErrLogFull {
		// Checkpoint: flush the tree pages, then recycle the log.
		if err := t.inner.Sync(th); err != nil {
			return err
		}
		if err := syncbtree.ResetLog(th, t.io, t.log, t.walStart); err != nil {
			return err
		}
		if _, err := t.log.Append(encodeRec(op, key, value)); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	if t.cfg.Persistence == core.StrongPersistence {
		return syncbtree.FlushLog(th, t.io, t.log, t.walStart)
	}
	return nil
}

// Insert logs then applies an insert-or-replace.
func (t *Tree) Insert(th *simos.Thread, key uint64, value []byte) (bool, error) {
	if err := t.logUpdate(th, recInsert, key, value); err != nil {
		return false, err
	}
	t.updates++
	return t.inner.Insert(th, key, value)
}

// Update logs then applies a replace-if-present.
func (t *Tree) Update(th *simos.Thread, key uint64, value []byte) (bool, error) {
	if err := t.logUpdate(th, recInsert, key, value); err != nil {
		return false, err
	}
	t.updates++
	return t.inner.Update(th, key, value)
}

// Delete logs then applies a delete.
func (t *Tree) Delete(th *simos.Thread, key uint64) (bool, error) {
	if err := t.logUpdate(th, recDelete, key, nil); err != nil {
		return false, err
	}
	t.updates++
	return t.inner.Delete(th, key)
}

// Search reads through the inner tree.
func (t *Tree) Search(th *simos.Thread, key uint64) ([]byte, bool, error) {
	return t.inner.Search(th, key)
}

// RangeScan reads through the inner tree.
func (t *Tree) RangeScan(th *simos.Thread, lo, hi uint64, limit int) ([]core.KV, error) {
	return t.inner.RangeScan(th, lo, hi, limit)
}

// Sync makes all updates durable: flush the log, then the tree pages;
// the inner tree's Sync ends in the one device flush.
func (t *Tree) Sync(th *simos.Thread) error {
	t.logMu.Lock(th)
	var err error
	t.log.Flush(syncbtree.LogBlocks(th, t.io, t.walStart, &err))
	t.logMu.Unlock(th)
	if err != nil {
		return err
	}
	return t.inner.Sync(th)
}

// RecoverRecords reads the log region of dev directly (setup-path, not
// simulated time) and returns the redo records after the last checkpoint,
// for replay onto a reopened tree.
func RecoverRecords(dev *nvme.SimDevice, cfg Config) ([][]byte, error) {
	if cfg.WALBlocks == 0 {
		cfg.WALBlocks = 1 << 20
	}
	start := dev.NumBlocks() - cfg.WALBlocks
	// Read until the first all-invalid block run; Recover stops at the
	// torn tail anyway, so read a generous prefix.
	const maxScan = 4096
	n := cfg.WALBlocks
	if n > maxScan {
		n = maxScan
	}
	region := make([]byte, int(n)*storage.PageSize)
	dev.ReadAt(start, region)
	recs, _ := wal.Recover(region)
	return recs, nil
}

// Replay applies recovered records to a tree.
func Replay(th *simos.Thread, t *Tree, recs [][]byte) error {
	for _, rec := range recs {
		if len(rec) < 9 {
			return fmt.Errorf("lcb: short record")
		}
		key := binary.LittleEndian.Uint64(rec[1:9])
		switch rec[0] {
		case recInsert:
			if _, err := t.inner.Insert(th, key, rec[9:]); err != nil {
				return err
			}
		case recDelete:
			if _, err := t.inner.Delete(th, key); err != nil {
				return err
			}
		default:
			return fmt.Errorf("lcb: unknown record op %d", rec[0])
		}
	}
	return nil
}
