// Package patree is a polled-mode, asynchronous B+ tree for NVMe-class
// storage, reproducing "PA-Tree: Polled-Mode Asynchronous B+ Tree for
// NVMe" (ICDE 2020).
//
// A PA-Tree processes many index operations in an interleaved fashion on
// a single working thread: when an operation issues an I/O it parks, the
// thread moves on to other operations, and a workload-aware scheduler
// decides when to poll the device's completion queue. This keeps the
// device saturated with asynchronous I/O without the synchronization and
// context-switch costs of a thread-per-request design.
//
// This package is the embedder-facing API: it runs the tree on a real
// goroutine over a memory-backed queue-pair device and offers blocking
// calls that are safe from any goroutine. The deterministic simulation
// used to reproduce the paper's experiments lives under internal/ and is
// driven by cmd/paexp and the benchmarks.
//
//	db, err := patree.Open(patree.Options{})
//	defer db.Close()
//	db.Put(42, []byte("answer"))
//	v, ok, _ := db.Get(42)
//
// The blocking calls admit one operation and wait for it, so a single
// caller goroutine holds at most one operation in flight — the tree's
// pipeline stays empty and the device idle. To reach the paper's queue
// depths from few goroutines, use the asynchronous API: every operation
// has an Async variant returning a *Handle future, and a Batch admits
// many heterogeneous operations in one admission-ring transaction:
//
//	h := db.PutAsync(42, []byte("answer"))
//	// ... issue more work ...
//	err := h.Wait()
//	h.Release()
//
//	b := db.NewBatch()
//	for k := uint64(0); k < 128; k++ {
//		b.Get(k)
//	}
//	b.Commit()
//	b.Wait()
//	v, ok := b.Value(3), b.Found(3)
//	b.Release()
//
// Admission is bounded: when the inbox ring is full, Async calls and
// Batch.Commit block until space frees, while Batch.TryCommit returns
// ErrBacklog without admitting anything. Context-aware variants
// (GetContext, PutContext, ...) additionally unblock on cancellation;
// see DESIGN.md for the detach semantics.
//
// # Sharding
//
// Options.Shards > 1 hash-partitions the keyspace across that many
// independent PA-Tree workers, each with its own working thread, queue
// pair, inbox ring, buffer pool and (optional) journal region, all over
// disjoint partitions of one device. The public surface is unchanged:
// point operations route by key, Scan scatter-gathers and merge-sorts
// across shards under the global limit, Sync/Stats/Metrics/WriteTrace
// aggregate, and Batch.Commit splits into per-shard sub-batches
// (TryCommit reserves room on every shard before admitting anywhere, so
// it stays all-or-nothing). Shards: 0 or 1 is the paper's single-worker
// tree, byte-for-byte — the same code at N = 1. See DESIGN.md §12.
package patree

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/trace"
)

// MaxValueSize is the largest storable value (two max-size entries share
// one 512-byte node; see internal/storage).
const MaxValueSize = storage.MaxValueSize

// KV is a key/value pair returned by Scan.
type KV = core.KV

// Persistence selects the §III-C buffering mode. It selects behaviour
// only without the journal; see Options.Journal.
type Persistence = core.Persistence

// Persistence modes (unjournaled).
const (
	// Strong writes every update through to the device before the
	// operation completes.
	Strong = core.StrongPersistence
	// Weak buffers updates in memory; call Sync to persist them.
	Weak = core.WeakPersistence
)

// Options configures Open.
type Options struct {
	// Device is the backing block device. Nil selects an in-memory
	// device sized by DeviceBlocks.
	Device nvme.Device
	// DeviceBlocks sizes the default in-memory device (default 1M blocks
	// = 512 MiB).
	DeviceBlocks uint64
	// Persistence selects Strong (default) or Weak buffering when Journal
	// is off; with Journal on it has no effect.
	Persistence Persistence
	// BufferPages is the total page-cache capacity (default 4096 pages =
	// 2 MiB), split evenly across shards when Shards > 1.
	BufferPages int
	// InboxDepth bounds each worker's admission ring (rounded up to a
	// power of two; default 4096). A full ring blocks Async calls and
	// Commit, and makes TryCommit return ErrBacklog.
	InboxDepth int
	// Format forces re-initialization even if the device already holds a
	// tree. Devices without a valid meta page are formatted only after
	// crash recovery fails to rebuild one from the redo journal.
	Format bool
	// Journal enables the redo journal: every mutation's redo records are
	// appended to an on-device WAL and made durable before the operation
	// is acknowledged, so a crash loses no acknowledged write or torn
	// multi-page update — Open replays the journal on the next start. The
	// log is then the commit point under both Persistence modes: an
	// operation acknowledges at log durability and its pages stay
	// buffered, reaching the device by write-back on eviction or at a
	// checkpoint, never ahead of their records.
	Journal bool
	// MaxIORetries bounds how many times one operation's failed device
	// command is retried (with exponential backoff) before the DB enters
	// the terminal ErrDeviceFailed state. 0 selects the default (3);
	// negative disables retries.
	MaxIORetries int
	// Trace enables the operation-lifecycle tracer: the working thread
	// records admission, queueing, latch, I/O and completion events into
	// a fixed ring, exported as Chrome trace-event JSON by WriteTrace
	// (viewable in Perfetto). Off by default; when off the hot path pays
	// only a nil check. Stage histograms (Metrics) are always collected.
	Trace bool
	// Shards hash-partitions the keyspace across this many independent
	// workers over disjoint regions of the device (0 or 1 = the classic
	// single-worker tree). A device formatted with one shard layout
	// refuses to open under another: reformat or match the count.
	Shards int
	// Devices spreads the shards across several block devices instead of
	// one: shard i lives on a partition of Devices[i mod len(Devices)],
	// so shards on different devices stop sharing one controller's interference
	// accounting — the Fig 3c ceiling that caps single-device scaling.
	// Mutually exclusive with Device; the DB never owns the devices.
	// Shards must be at least len(Devices) (every device hosts at least
	// one shard), and the formatted topology is stamped into each shard's
	// superblock: reopening with a different device count or order is
	// refused. A single-entry Devices is exactly the classic layout.
	Devices []nvme.Device
}

// Counters are the working threads' activity counters: device commands
// and errors, admission backpressure, the redo journal, scan read-ahead
// and the idle ledger.
type Counters = core.Counters

// Stats reports tree activity, summed across shards. Each field's tag
// declares its exposition name and how shards fold into it.
type Stats struct {
	Ops     uint64 `metric:"patree_ops_total counter sum" help:"Completed index operations."`
	NumKeys uint64 `metric:"patree_keys gauge sum" help:"Number of keys in the tree."`
	Height  int    `metric:"patree_height gauge max" help:"Tree height (1 = single leaf)."`
	Counters
	BufferHit float64 `metric:"patree_buffer_hit_ratio gauge derived" help:"Page-buffer hit ratio."`
	// EvictionsClean and EvictionsDirty count pages the buffer evicted to
	// make room, by state: a dirty eviction queues a write-back.
	EvictionsClean uint64 `metric:"patree_buffer_evictions_total{state=clean} counter sum" help:"Pages evicted from the page buffer, by state (a dirty one is written back)."`
	EvictionsDirty uint64 `metric:"patree_buffer_evictions_total{state=dirty} counter sum"`
	// AdmissionRejects counts the clean evictions of a new page the
	// buffer's frequency filter refused: it was looked up no more often
	// than the page it would have displaced.
	AdmissionRejects uint64 `metric:"patree_buffer_admission_rejects_total counter sum" help:"New pages the page buffer evicted instead of admitting, being looked up no more often than its victim."`
	// Shards is the number of independent workers backing this DB (1 for
	// the classic single-worker tree) and Devices the number of block
	// devices they are spread over (1 unless Options.Devices named more).
	Shards  int `metric:"patree_shards gauge derived" help:"Number of shard workers serving the keyspace."`
	Devices int `metric:"patree_devices gauge derived" help:"Number of block devices the shards are spread over."`
}

// shard is one worker: a tree, its working goroutine, and the
// per-worker observability state behind Metrics and WriteTrace.
type shard struct {
	idx    int
	tree   *core.Tree
	tracer *trace.Tracer
	done   chan struct{}
}

// DB is an open PA-Tree.
type DB struct {
	dev     nvme.Device
	ownsDev bool
	shards  []*shard
	devices int // distinct devices backing the shards

	// mu orders admissions against Close: admitting paths hold it shared
	// while checking closed and handing operations to the trees, Close
	// holds it exclusively while setting closed. An operation therefore
	// either observes closed and fails with ErrClosed, or is fully
	// admitted before any tree is told to stop — core.ErrStopped can never
	// leak out of a well-ordered shutdown (and is mapped to ErrClosed
	// defensively anyway). Holding it shared across a whole fan-out also
	// makes multi-shard admissions atomic with respect to Close.
	mu     sync.RWMutex
	closed bool
}

// minShardBlocks is the smallest device partition a shard accepts: room
// for the superblock, a root, and a useful WAL region.
const minShardBlocks = 1024

// Open creates or opens a PA-Tree per opts and starts its working
// goroutine(s). It runs the serving profile: a range scan reads the
// leaves it will walk ahead, each run of adjacent pages in one command
// (DESIGN.md §17); the paper's experiments run without it.
func Open(opts Options) (*DB, error) {
	if len(opts.Devices) > 0 && opts.Device != nil {
		return nil, fmt.Errorf("patree: set Options.Device or Options.Devices, not both")
	}
	devs := opts.Devices
	owns := false
	if len(devs) == 0 {
		if opts.Device == nil {
			if opts.DeviceBlocks == 0 {
				opts.DeviceBlocks = 1 << 20
			}
			opts.Device = nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: opts.DeviceBlocks})
			owns = true
		}
		devs = []nvme.Device{opts.Device}
	}
	if opts.BufferPages == 0 {
		opts.BufferPages = 4096
	}
	if opts.InboxDepth == 0 {
		opts.InboxDepth = 4096
	}
	n, m := max(opts.Shards, 1), len(devs)
	if n > 1<<16-1 {
		return nil, fmt.Errorf("patree: %d shards exceeds the format limit", n)
	}
	if n < m {
		return nil, fmt.Errorf("patree: %d shards cannot cover %d devices — every device must host at least one shard (raise Options.Shards or drop devices)", n, m)
	}
	parts, err := nvme.ShardPartitions(devs, n)
	if err != nil {
		return nil, err
	}
	bufPer := opts.BufferPages
	if n > 1 {
		bufPer = max(opts.BufferPages/n, 64)
		for i, p := range parts {
			if p.NumBlocks() < minShardBlocks {
				return nil, fmt.Errorf("patree: device %d of %d blocks too small for its shards (shard %d gets %d blocks, needs %d)",
					i%m, devs[i%m].NumBlocks(), i, p.NumBlocks(), minShardBlocks)
			}
		}
	}
	db := &DB{dev: opts.Device, ownsDev: owns, devices: m}
	db.shards = make([]*shard, n)
	for i, p := range parts {
		// The superblock identity each shard must carry. A lone worker
		// uses its device directly as shard 0 of 0 — the pre-sharding
		// layout — and a one-device topology records placement 0 of 0, so
		// Options.Device and a single-entry Options.Devices are one image.
		var dev nvme.Device = p
		id, count, devID, devCount := uint16(i), uint16(n), uint16(0), uint16(0)
		if n == 1 {
			dev, count = devs[0], 0
		}
		if m > 1 {
			devID, devCount = uint16(i%m), uint16(m)
		}
		s, err := openShard(dev, opts, bufPer, id, count, devID, devCount)
		if err != nil {
			// Unwind the workers already started so no goroutine leaks.
			for _, prev := range db.shards[:i] {
				prev.tree.Stop()
				<-prev.done
			}
			if n > 1 {
				err = fmt.Errorf("patree: shard %d/%d (device %d/%d): %w", i, n, i%m, m, err)
			}
			return nil, err
		}
		s.idx = i
		db.shards[i] = s
	}
	return db, nil
}

// openShard formats/recovers one device (or partition) as shard id of
// count placed on device devID of devCount, verifies its recorded shard
// and device identity, and starts its worker.
func openShard(dev nvme.Device, opts Options, bufferPages int, id, count, devID, devCount uint16) (*shard, error) {
	meta, err := core.ReadMeta(dev)
	switch {
	case opts.Format:
		if meta, err = core.FormatShardDevice(dev, id, count, devID, devCount); err != nil {
			return nil, fmt.Errorf("patree: format: %w", err)
		}
	case err != nil:
		// Page 0 gave no superblock — possibly torn by a crash mid meta
		// write, possibly a device error. Recovery reads it again and can
		// rebuild it from the journaled image. Only its verdict that the
		// device holds no tree at all leads to a format: an I/O error or a
		// damaged tree is returned, never formatted over.
		m, _, rerr := core.Recover(dev)
		switch {
		case rerr == nil:
			meta = m
		case !errors.Is(rerr, core.ErrUnformatted):
			return nil, fmt.Errorf("patree: recover: %w", rerr)
		default:
			if meta, err = core.FormatShardDevice(dev, id, count, devID, devCount); err != nil {
				return nil, fmt.Errorf("patree: format: %w", err)
			}
		}
	case meta.WALBlocks != 0:
		// The device describes a journal region: replay whatever an
		// unclean shutdown left there (a no-op after a clean Close). A
		// topology mismatch is diagnosed first — under the wrong partition
		// geometry the recorded WAL range may not even be addressable.
		if err := checkShardIdentity(meta, id, count, devID, devCount); err != nil {
			return nil, err
		}
		m, _, rerr := core.Recover(dev)
		if rerr != nil {
			return nil, fmt.Errorf("patree: recover: %w", rerr)
		}
		meta = m
	}
	if err := checkShardIdentity(meta, id, count, devID, devCount); err != nil {
		return nil, err
	}
	env := core.NewRealEnv()
	// Probes are cheap host work, so the worker probes whenever I/O is
	// outstanding and reaps a completion the moment it is posted; an idle
	// worker parks and every admission wakes it (RealEnv.Wake).
	policy := &sched.AlwaysProbe{Idle: 20 * time.Microsecond}
	var tracer *trace.Tracer
	if opts.Trace {
		tracer = core.NewTracer(trace.RingEvents)
	}
	tree, err := core.New(dev, core.Config{
		Persistence:  opts.Persistence,
		BufferPages:  bufferPages,
		InboxDepth:   opts.InboxDepth,
		Journal:      opts.Journal,
		MaxIORetries: opts.MaxIORetries,
		Policy:       policy,
		Tracer:       tracer,
		Pipelined:    true,
	}, env, meta)
	if err != nil {
		return nil, err
	}
	s := &shard{tree: tree, tracer: tracer, done: make(chan struct{})}
	go func() {
		// The working thread is an ordinary goroutine, not a locked OS
		// thread: when it parks it hands its P to the caller it just
		// completed, so a round trip is goroutine switches on one thread
		// rather than a futex sleep and wake of two.
		tree.Run()
		close(s.done)
	}()
	return s, nil
}

// checkShardIdentity compares a superblock's recorded shard and device
// placement against the topology it is being opened under. The device
// check runs first so a mis-assembled device list gets the
// device-flavored diagnosis even when the shard ids also disagree.
func checkShardIdentity(meta *storage.Meta, id, count, devID, devCount uint16) error {
	if meta.DeviceID != devID || meta.DeviceCount != devCount {
		return fmt.Errorf("patree: device holds shard %d placed on device %d of %d, opened as device %d of %d — pass Options.Devices in the formatted count and order (or Format to repartition)",
			meta.ShardID, meta.DeviceID, meta.DeviceCount, devID, devCount)
	}
	if meta.ShardID != id || meta.ShardCount != count {
		return fmt.Errorf("patree: device holds shard %d of %d, opened as %d of %d — set Options.Shards to the formatted count (or Format to repartition)",
			meta.ShardID, meta.ShardCount, id, count)
	}
	return nil
}

// mapErr translates internal sentinel errors to their public forms.
func mapErr(err error) error {
	if errors.Is(err, core.ErrStopped) {
		return ErrClosed
	}
	return err
}

// span reports the shards [lo, hi) a logical operation lands on: a point
// operation routes by key to one (see core.ShardOf), a scan or sync
// covers them all. It is the package's one routing decision.
func (db *DB) span(bo *BatchOp) (lo, hi int) {
	if bo.Kind == OpScan || bo.Kind == OpSync {
		return 0, len(db.shards)
	}
	lo = core.ShardOf(bo.Key, len(db.shards))
	return lo, lo + 1
}

// do is the blocking spelling of every operation: issue it, wait, and
// recycle the pooled handle.
func (db *DB) do(bo BatchOp) (core.Result, error) {
	h, err := db.issue(&bo)
	if err != nil {
		return core.Result{}, err
	}
	err = h.Wait()
	res := h.res
	h.recycle()
	return res, err
}

// Put inserts or replaces key.
func (db *DB) Put(key uint64, value []byte) error {
	_, err := db.do(BatchOp{Kind: OpPut, Key: key, Value: value})
	return err
}

// Get returns the value stored under key.
func (db *DB) Get(key uint64) ([]byte, bool, error) {
	res, err := db.do(BatchOp{Kind: OpGet, Key: key})
	return res.Value, res.Found, err
}

// Update replaces key only if present, reporting whether it was.
func (db *DB) Update(key uint64, value []byte) (bool, error) {
	res, err := db.do(BatchOp{Kind: OpUpdate, Key: key, Value: value})
	return res.Found, err
}

// Delete removes key, reporting whether it was present.
func (db *DB) Delete(key uint64) (bool, error) {
	res, err := db.do(BatchOp{Kind: OpDelete, Key: key})
	return res.Found, err
}

// Scan returns pairs with keys in [lo, hi], at most limit (0 = all).
// Across shards the per-shard results are merge-sorted and the limit
// applies to the merged stream, so the result is the same ascending
// prefix a single tree would return.
func (db *DB) Scan(lo, hi uint64, limit int) ([]KV, error) {
	res, err := db.do(BatchOp{Kind: OpScan, Key: lo, End: hi, Limit: limit})
	return res.Pairs, err
}

// Sync flushes all buffered updates and the meta pages to the device
// (meaningful under Weak persistence or Journal, where it is a
// checkpoint; cheap under unjournaled Strong). Across
// shards it fans out and waits for every shard's flush.
func (db *DB) Sync() error {
	_, err := db.do(BatchOp{Kind: OpSync})
	return err
}

// onWorker runs f on s's working thread between two loop passes
// (core.Tree.Call), giving it a quiescent, consistent view of that shard's
// state with no racing mutations. It does not queue on the admission
// ring, so a scrape under overload waits one pass, not for room. Once the
// worker has exited (a closed DB) f runs on the caller, the final state
// being equally race-free.
func (db *DB) onWorker(s *shard, f func()) { s.tree.Call(f) }

// Stats snapshots activity counters, summed across shards; each shard's
// contribution is taken on its working thread so it is a consistent
// per-shard view.
func (db *DB) Stats() Stats {
	var out Stats
	var buf bufferCounts
	for _, s := range db.shards {
		db.onWorker(s, func() {
			part, bs := s.statsSnapshot()
			metrics.Fold(&out, &part)
			buf.add(bs)
		})
	}
	db.deriveStats(&out, buf)
	return out
}

// deriveStats completes a folded Stats with its derived fields, which no
// single shard knows: the weighted buffer hit rate and the topology.
func (db *DB) deriveStats(st *Stats, buf bufferCounts) {
	if buf.hits+buf.misses > 0 {
		st.BufferHit = float64(buf.hits) / float64(buf.hits+buf.misses)
	}
	st.Shards = len(db.shards)
	st.Devices = db.devices
}

// bufferCounts carries raw hit/miss counters out of a shard snapshot so
// the merged hit rate is weighted, not an average of averages.
type bufferCounts struct{ hits, misses uint64 }

func (c *bufferCounts) add(o bufferCounts) {
	c.hits += o.hits
	c.misses += o.misses
}

// statsSnapshot builds one shard's Stats contribution; call only on the
// shard's working thread (onWorker).
func (s *shard) statsSnapshot() (Stats, bufferCounts) {
	st := s.tree.StatsSnapshot()
	bs := s.tree.BufferStats()
	return Stats{
		Ops:              st.TotalOps(),
		NumKeys:          s.tree.NumKeys(),
		Height:           s.tree.Height(),
		Counters:         st.Counters,
		EvictionsClean:   bs.Evictions - bs.DirtyEvictions,
		EvictionsDirty:   bs.DirtyEvictions,
		AdmissionRejects: bs.AdmissionRejects,
	}, bufferCounts{hits: bs.Hits, misses: bs.Misses}
}

// Close syncs (weak mode), stops the working threads and releases the
// device if this DB created it. Safe to call twice, and safe against
// concurrent operations: anything admitted before Close wins the
// admission lock completes normally; anything after fails with
// ErrClosed. Shards are flushed in parallel (each gets a final sync
// before its Stop) and the first error is reported.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	// Persist buffered state before shutdown: the final sync takes the one
	// admission path, and closed is set under the same exclusive hold, so
	// nothing can slip into the inboxes between the sync and Stop and then
	// complete with a surprising error.
	h := acquireHandle()
	db.materialize(&BatchOp{Kind: OpSync}, h, db.admitTo)
	db.closed = true
	db.mu.Unlock()
	syncErr := h.Wait()
	h.recycle()
	for _, s := range db.shards {
		s.tree.Stop()
	}
	for _, s := range db.shards {
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("patree: worker did not stop")
		}
	}
	if db.ownsDev {
		if err := db.dev.Close(); err != nil && syncErr == nil {
			syncErr = err
		}
	}
	return syncErr
}
