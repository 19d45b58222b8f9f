package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/patree/patree/internal/buffer"
	"github.com/patree/patree/internal/latch"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
)

// Kind identifies an index operation type. Point and range search are the
// paper's "search operations"; insert, update and delete are its "update
// operations".
type Kind int

const (
	// KindSearch is a point lookup.
	KindSearch Kind = iota
	// KindRange is a range scan over [Key, EndKey] with an optional limit.
	KindRange
	// KindInsert inserts or overwrites a key.
	KindInsert
	// KindUpdate overwrites an existing key; it reports Found=false and
	// changes nothing when the key is absent.
	KindUpdate
	// KindDelete removes a key.
	KindDelete
	// KindSync flushes all buffered updates to the NVM (weak persistence)
	// and persists the meta page; provided per §III-C.
	KindSync
	// KindNop traverses the full admission pipeline (ring, ready queue,
	// completion callback) without touching the index. It exists so the
	// pipeline's own latency and allocation overhead can be measured in
	// isolation from tree work.
	KindNop
)

// numKinds sizes per-kind counters.
const numKinds = 7

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSearch:
		return "search"
	case KindRange:
		return "range"
	case KindInsert:
		return "insert"
	case KindUpdate:
		return "update"
	case KindDelete:
		return "delete"
	case KindSync:
		return "sync"
	case KindNop:
		return "nop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsUpdate reports whether the kind mutates the index.
func (k Kind) IsUpdate() bool {
	return k == KindInsert || k == KindUpdate || k == KindDelete || k == KindSync
}

// KV is one key/value pair returned by a range scan.
type KV struct {
	Key   uint64
	Value []byte
}

// Result is the outcome of a completed operation.
type Result struct {
	// Found reports whether the key existed (search/update/delete) or a
	// previous value was replaced (insert).
	Found bool
	// Value is the value found by a point search.
	Value []byte
	// Pairs are the range-scan results in ascending key order.
	Pairs []KV
	// Err is non-nil if the operation failed (e.g. value too large).
	Err error
	// Admitted and Completed bound the operation's processing; their
	// difference is the latency reported in the paper's figures.
	Admitted, Completed sim.Time
}

// Latency returns Completed - Admitted.
func (r Result) Latency() sim.Duration { return r.Completed.Sub(r.Admitted) }

// opState is the coarse position of an operation in its transition graph
// (§III-A, Figure 5). Waiting states are not separate enum values: an op
// is I/O-blocked or latch-blocked while its callbacks are outstanding,
// and the callbacks move it back to the ready set.
type opState int

const (
	stEntry        opState = iota // (re)start at the root
	stChildGranted                // latch on op.cur held; handle coupling
	stReadNode                    // need the content of op.cur
	stProcess                     // have op.page or op.curNode; run index logic
	stWriteNext                   // unjournaled strong: issue the next queued write
	stJournal                     // journaled update: persist the redo group
	stSyncRun                     // sync op: drive the flush pipeline
	stDone
)

// heldLatch records one latch the op holds. A deferred latch was granted
// while the op ran and is not in the latch table yet (acquireLatch).
type heldLatch struct {
	id       storage.PageID
	mode     latch.Mode
	deferred bool
}

// writeReq is one encoded page image of an op's group.
type writeReq struct {
	id   storage.PageID
	data []byte
}

// Op is one in-flight index operation: its parameters, its state-machine
// position, the latches it holds, and its pending I/O. Ops are created by
// the constructors below (or recycled via AcquireOp/Release), admitted
// with Tree.Admit, and completed via the Done callback on the working
// thread. After Done runs the tree holds no reference to the Op, so the
// callback may immediately Release it back to the pool.
type Op struct {
	kind   Kind
	key    uint64
	endKey uint64
	limit  int
	value  []byte

	// Done runs on the working thread when the operation completes.
	Done func(*Op)
	// Res is the outcome; valid once Done runs.
	Res Result
	// Tag is an embedder-owned correlation value (e.g. a batch index).
	// The tree never reads it; it is zeroed on Release.
	Tag uint64
	// Span is the distributed trace span id this op belongs to (0 = not
	// sampled). When nonzero and tracing is on, completion emits a link
	// instant tying the engine's op sequence number to the span, so a
	// merged serving trace can stitch client → server → shard. Zeroed on
	// Release; never read on any other path, so unsampled runs pay only a
	// zero-compare.
	Span uint64

	seq      uint64
	state    opState
	mode     latch.Mode
	depth    int // 0 at root
	cur      storage.PageID
	page     []byte        // sealed leaf image at cur; after the edit, its new image
	curNode  *storage.Node // decoded page at cur: pessimistic descents only
	prevNode *storage.Node // parent retained while deciding child split
	held     []heldLatch
	inReady  bool

	// ioData carries a completed read's page image into stReadNode; ioFor
	// records which page it belongs to, so a stale image can never be
	// consumed for a different node (e.g. after the buffer turned the
	// original lookup into a hit, or after a root-change restart).
	// pendingErr carries an I/O error into the next scheduling of the op.
	ioData     []byte
	ioFor      storage.PageID
	pendingErr error

	// modified are the decoded nodes a split made this op mutate (empty
	// when its leaf edit was all it changed); they stay latched until the
	// op completes: its writes durable (strong), its redo group durable
	// (journaled) or its pages buffered (weak). writes are the op's images
	// (plus the meta page when the root moves), built once by
	// beginWriteback: unjournaled strong mode writes them in place in this
	// order (wIdx next), the journal logs them as the op's redo group, and
	// finishOp publishes them.
	modified []*storage.Node
	writes   []writeReq
	wIdx     int
	commit   func()

	// Sync bookkeeping: the pipeline advances through numbered phases
	// (see runSync). syncQueue is the page snapshot still to write and
	// syncOutstanding the commands in flight; syncSent marks a single
	// in-flight phase command, syncResetDone that the in-memory log has
	// already been reset, syncFenced that this op owns the append fence.
	syncStarted     bool
	syncQueue       []buffer.Dirty
	syncOutstanding int
	syncPhase       int
	syncSent        bool
	syncResetDone   bool
	syncFenced      bool
	// internal marks tree-spawned operations (checkpoint syncs) so their
	// completion can release pipeline-serialization flags.
	internal bool

	// ioRetries is the op's cumulative transient-failure retry budget
	// consumed so far (compared against Config.MaxIORetries).
	ioRetries int

	// Redo-journal bookkeeping. jNeed is the log byte watermark that must
	// be durable before this op may be acknowledged (ordinary mutations
	// hand their WAL blocks to the tree-level writer and park on it);
	// jLiveMark/jParked record whether the op is counted in Tree.jLive /
	// parked in Tree.jWaiters. A checkpoint parks the same way on its
	// fenced meta record.
	jNeed     int
	jAppended bool
	jLiveMark bool
	jParked   bool

	holdsWrite bool

	// tree is the owner set at admission; pendingLatch is the single
	// outstanding latch request (an op waits on at most one latch at a
	// time), and grantFn is a reusable grant callback bound to this Op so
	// latch waits allocate no closure on the hot path. grantFn is built
	// lazily on first use and survives pool recycling.
	tree         *Tree
	pendingLatch heldLatch
	grantFn      func()

	// Stage-timing observability (see Stats.Stages). enqueuedAt is the
	// only producer-written field: it is stamped immediately before the
	// ring publish, whose release-store makes it visible to the worker
	// with the rest of the op. Everything below it is worker-only. The
	// Duration fields accumulate because an op re-enters the ready queue
	// (and may wait on latches or I/O) several times in its life.
	enqueuedAt sim.Time
	drainedAt  sim.Time
	readyAt    sim.Time
	latchFrom  sim.Time
	queueWait  time.Duration
	latchWait  time.Duration
	ioWait     time.Duration

	// pessimistic marks an update operation's second attempt: the first
	// descent takes shared latches on inner nodes and an exclusive latch
	// only on the leaf (optimistic latch coupling, per Bayer & Schkolnick
	// [3]); if the leaf turns out to need a split, the operation restarts
	// with exclusive coupling the whole way down.
	pessimistic bool

	// Per-key dependency chain (see Tree.keyDeps): keyGated marks a point
	// operation registered in its key's chain; keyNext is the next point
	// operation on the same key, parked until this one completes. Both are
	// worker-only.
	keyGated bool
	keyNext  *Op
}

// Kind returns the operation type.
func (o *Op) Kind() Kind { return o.kind }

// Key returns the primary key parameter.
func (o *Op) Key() uint64 { return o.key }

// NewSearch builds a point-search operation.
func NewSearch(key uint64, done func(*Op)) *Op {
	return &Op{kind: KindSearch, key: key, mode: latch.Shared, Done: done}
}

// NewRange builds a range scan over [lo, hi]; limit <= 0 means unlimited.
func NewRange(lo, hi uint64, limit int, done func(*Op)) *Op {
	return &Op{kind: KindRange, key: lo, endKey: hi, limit: limit, mode: latch.Shared, Done: done}
}

// NewInsert builds an insert-or-replace operation.
func NewInsert(key uint64, value []byte, done func(*Op)) *Op {
	return &Op{kind: KindInsert, key: key, value: value, mode: latch.Exclusive, Done: done}
}

// NewUpdate builds a replace-if-present operation.
func NewUpdate(key uint64, value []byte, done func(*Op)) *Op {
	return &Op{kind: KindUpdate, key: key, value: value, mode: latch.Exclusive, Done: done}
}

// NewDelete builds a delete operation.
func NewDelete(key uint64, done func(*Op)) *Op {
	return &Op{kind: KindDelete, key: key, mode: latch.Exclusive, Done: done}
}

// NewSync builds a sync operation (§III-C).
func NewSync(done func(*Op)) *Op {
	return &Op{kind: KindSync, mode: latch.Exclusive, Done: done}
}

// NewNop builds a pipeline no-op (see KindNop).
func NewNop(done func(*Op)) *Op {
	return &Op{kind: KindNop, mode: latch.Shared, Done: done}
}

// ─── Pooled lifecycle ───────────────────────────────────────────────────
//
// The admission pipeline recycles operations: an embedder acquires an Op,
// initializes it with one of the Init methods, sets Done, admits it, and
// the completion callback hands the Op back with Release. The pool keeps
// the per-op slices (held latches, modified nodes, queued writes) so a
// steady-state operation allocates nothing on admission.

var opPool = sync.Pool{New: func() any { return new(Op) }}

// AcquireOp returns a cleared operation from the pool. It must be
// initialized with exactly one Init method before admission.
func AcquireOp() *Op { return opPool.Get().(*Op) }

// Release resets o and returns it to the pool. The caller must hold the
// only reference: call it from (or after) the Done callback, never while
// the operation is in flight.
func (o *Op) Release() {
	o.reset()
	opPool.Put(o)
}

// reset clears every field for reuse, keeping slice capacity but dropping
// the pointers they hold so recycled ops retain no page data. grantFn
// survives recycling: it dereferences o.tree (re-set at each admission)
// at grant time, so one closure serves the op for its pooled lifetime.
func (o *Op) reset() {
	o.kind = 0
	o.key = 0
	o.endKey = 0
	o.limit = 0
	o.value = nil
	o.Done = nil
	o.Res = Result{}
	o.Tag = 0
	o.Span = 0
	o.seq = 0
	o.state = stEntry
	o.mode = 0
	o.depth = 0
	o.cur = 0
	o.page = nil
	o.curNode = nil
	o.prevNode = nil
	o.held = o.held[:0]
	o.inReady = false
	o.ioData = nil
	o.ioFor = 0
	o.pendingErr = nil
	for i := range o.modified {
		o.modified[i] = nil
	}
	o.modified = o.modified[:0]
	for i := range o.writes {
		o.writes[i] = writeReq{}
	}
	o.writes = o.writes[:0]
	o.wIdx = 0
	o.commit = nil
	o.syncStarted = false
	o.syncQueue = nil
	o.syncOutstanding = 0
	o.syncPhase = 0
	o.syncSent = false
	o.syncResetDone = false
	o.syncFenced = false
	o.internal = false
	o.ioRetries = 0
	o.jNeed = 0
	o.jAppended = false
	o.jLiveMark = false
	o.jParked = false
	o.holdsWrite = false
	o.tree = nil
	o.pendingLatch = heldLatch{}
	o.enqueuedAt = 0
	o.drainedAt = 0
	o.readyAt = 0
	o.latchFrom = 0
	o.queueWait = 0
	o.latchWait = 0
	o.ioWait = 0
	o.pessimistic = false
	o.keyGated = false
	o.keyNext = nil
}

// InitSearch configures o as a point search and returns it.
func (o *Op) InitSearch(key uint64) *Op {
	o.kind, o.key, o.mode = KindSearch, key, latch.Shared
	return o
}

// InitRange configures o as a range scan over [lo, hi]; limit <= 0 means
// unlimited.
func (o *Op) InitRange(lo, hi uint64, limit int) *Op {
	o.kind, o.key, o.endKey, o.limit, o.mode = KindRange, lo, hi, limit, latch.Shared
	return o
}

// InitInsert configures o as an insert-or-replace.
func (o *Op) InitInsert(key uint64, value []byte) *Op {
	o.kind, o.key, o.value, o.mode = KindInsert, key, value, latch.Exclusive
	return o
}

// InitUpdate configures o as a replace-if-present.
func (o *Op) InitUpdate(key uint64, value []byte) *Op {
	o.kind, o.key, o.value, o.mode = KindUpdate, key, value, latch.Exclusive
	return o
}

// InitDelete configures o as a delete.
func (o *Op) InitDelete(key uint64) *Op {
	o.kind, o.key, o.mode = KindDelete, key, latch.Exclusive
	return o
}

// InitSync configures o as a sync (§III-C).
func (o *Op) InitSync() *Op {
	o.kind, o.mode = KindSync, latch.Exclusive
	return o
}

// InitNop configures o as a pipeline no-op (see KindNop).
func (o *Op) InitNop() *Op {
	o.kind, o.mode = KindNop, latch.Shared
	return o
}
