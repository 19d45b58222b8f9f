package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/patree/patree/internal/buffer"
	"github.com/patree/patree/internal/latch"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/pagemap"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/trace"
	"github.com/patree/patree/internal/wal"
)

// Counters are the worker's exported activity counters, each declared
// once with its exposition name and fold rule (internal/metrics schema).
// The embedder's Stats embeds them as they are.
type Counters struct {
	Probes       uint64 `metric:"patree_probes_total counter sum" help:"Completion-queue probes."`
	ReadsIssued  uint64 `metric:"patree_reads_issued_total counter sum" help:"NVMe read commands issued."`
	WritesIssued uint64 `metric:"patree_writes_issued_total counter sum" help:"NVMe write commands issued."`
	// AdmitWaits counts blocking Admit calls that found the ring full and
	// had to back off at least once (backpressure events).
	AdmitWaits uint64 `metric:"patree_admit_waits_total counter sum" help:"Admissions that hit a full inbox ring."`
	// IOErrors counts device commands that completed with an error status;
	// IORetries counts the retries issued in response (bounded per op by
	// Config.MaxIORetries). A growing gap between the two precedes the
	// terminal failed state.
	IOErrors  uint64 `metric:"patree_io_errors_total counter sum" help:"Device commands that completed with an error."`
	IORetries uint64 `metric:"patree_io_retries_total counter sum" help:"Retries issued for failed device commands."`
	// JournalAppends counts redo records appended to the WAL,
	// JournalLeafRecords those of them that are leaf records (one key's
	// change, not a page image), JournalBytes their framed bytes,
	// JournalBlockWrites the WAL blocks written (tail rewrites included),
	// JournalWriteCommands the write commands that carried them (one per
	// run of adjacent blocks), and Checkpoints the completed journal
	// checkpoints (all 0 unless Config.Journal).
	JournalAppends       uint64 `metric:"patree_journal_records_total counter sum" help:"Redo records appended to the WAL (Options.Journal)."`
	JournalLeafRecords   uint64 `metric:"patree_journal_leaf_records_total counter sum" help:"Of those, leaf records: one key's change, not a page image."`
	JournalBytes         uint64 `metric:"patree_journal_bytes_total counter sum" help:"Framed bytes those records took in the log."`
	JournalBlockWrites   uint64 `metric:"patree_journal_block_writes_total counter sum" help:"WAL blocks written, tail rewrites included."`
	JournalWriteCommands uint64 `metric:"patree_journal_write_commands_total counter sum" help:"WAL write commands issued, one per run of adjacent blocks."`
	Checkpoints          uint64 `metric:"patree_checkpoints_total counter sum" help:"Completed journal checkpoints."`
	// CheckpointPageWrites counts the dirty pages checkpoints wrote: the
	// burst a log reset costs once every journaled tree writes back.
	CheckpointPageWrites uint64 `metric:"patree_checkpoint_page_writes_total counter sum" help:"Dirty pages written by journal checkpoints."`
	// Scan read-ahead (Config.Pipelined; see pipeline.go). ReadAheads
	// counts its commands, one per run of adjacent leaves; ReadAheadHits
	// counts operations that parked on one instead of reading on demand.
	ReadAheads    uint64 `metric:"patree_read_ahead_total{outcome=issued} counter sum" help:"Scan read-ahead commands: issued (one per run of adjacent leaves), and ops that parked on one."`
	ReadAheadHits uint64 `metric:"patree_read_ahead_total{outcome=hit} counter sum"`
	// Yields counts idle passes the policy yielded, each one a sleep
	// (env.Sleep), and YieldTime sums the quanta it asked for (a
	// wall-clock park ends early on Wake).
	Yields    uint64        `metric:"patree_worker_yields_total counter sum" help:"Idle worker passes that gave up the CPU."`
	YieldTime time.Duration `metric:"patree_worker_yield_seconds_total counter sum" help:"Yield quanta the idle workers asked for."`
	// IdleSpinTime is CPU burned busy-polling with nothing to do; it is
	// charged to the "others" category and reported separately so the
	// Figure 9 / Table II attribution can exclude it (perf-style cycle
	// attribution does not see a wait loop as scheduling work).
	IdleSpinTime time.Duration `metric:"patree_worker_idle_spin_seconds_total counter sum" help:"Accounted CPU of idle passes that did not yield."`
}

// Stats aggregates the tree-side measurements the experiments report.
type Stats struct {
	Counters
	Completed       [numKinds]uint64 // by Kind
	ProbeHits       uint64           // probes that reaped >= 1 completion
	CompletionsSeen uint64
	Splits          uint64
	// Stages holds per-stage, per-kind latency histograms: where each
	// operation's time went between admission and completion (see
	// metrics.Stage). The conditional stages (admit-wait, latch-wait,
	// io-wait) record only operations that actually waited there, so
	// their percentiles describe the waiters, not a sea of zeros.
	Stages *metrics.StageSet
}

// TotalOps returns the number of completed index operations. Pipeline
// no-ops are excluded: they are diagnostics (and stats carriers), not
// index work.
func (s Stats) TotalOps() uint64 {
	var t uint64
	for k, c := range s.Completed {
		if Kind(k) == KindNop {
			continue
		}
		t += c
	}
	return t
}

// Tree is a PA-Tree instance bound to a device queue pair and an
// execution environment. All methods except Admit and Stop must be called
// from the working thread.
type Tree struct {
	cfg Config
	dev nvme.Device
	qp  nvme.QueuePair
	env Env

	// In-memory superblock state (persisted via the meta page on Sync).
	rootID    storage.PageID
	height    int
	numKeys   uint64
	syncEpoch uint64
	alloc     *storage.Allocator

	// Shard and device identity from the opening meta, copied into every
	// meta image the tree writes so checkpoints and root moves can never
	// demote a shard member back to an unsharded (or single-device)
	// superblock (0/0 = unsharded, 0/0 = single device).
	shardID     uint16
	shardCount  uint16
	deviceID    uint16
	deviceCount uint16

	latches *latch.Table
	ro      *buffer.ReadOnly  // strong persistence, unjournaled
	rw      *buffer.ReadWrite // weak persistence, or any journaled tree

	// inflight tracks write-backs between queueing and completion so read
	// misses never fetch stale pages from the device.
	inflight pagemap.Map[[]byte]
	bgQueue  []bgWrite // dirty evictions awaiting (re)submission

	// Redo-journal state (Config.Journal). wal appends over the region
	// [walStart, walStart+walBlocks); journalOn gates the whole pipeline
	// (walStart/walBlocks/metaWALGen are kept even when it is off, so meta
	// rewrites preserve the region description). jDurable is the log byte
	// watermark known durable; jWaiters holds ops whose records were
	// carried to the device by another op's block writes and wait for the
	// watermark to cover them. jLive counts ops inside stJournal; a
	// checkpoint quiesces them before it retires records. jFence blocks
	// new mutations (checked before the leaf is touched) while a
	// checkpoint drains. jPageEnd maps each page buffered since the last
	// log reset to the log position its newest record ends at, the
	// write-ahead rule's input (walHolds).
	wal        *wal.Log
	walStart   uint64
	walBlocks  uint64
	metaWALGen uint32
	journalOn  bool
	jHdr       [leafHeaderBytes]byte // the record header scratch
	jPageEnd   pagemap.Map[int]
	jDurable   int
	jLive      int
	jFence     bool
	jWaiters   []*Op

	// The WAL writer: one tree-level FIFO issuing log block writes in
	// log order. Per-op writers would race on the shared tail block — a
	// stale rewrite landing after a newer one truncates certified bytes,
	// and an op completing its own blocks could certify bytes an earlier
	// op still has in flight, acknowledging records a crash can still
	// revert. A flush that rewrites a block still pending here supersedes
	// it in place; an entry's certify watermark is applied to jDurable
	// only when the contiguous prefix of entries up to it has completed,
	// so the durable prefix is always contiguous. jwFree holds landed
	// entries for reuse.
	//
	// An entry goes out as one command together with the queued entries
	// whose blocks follow its own. Up to walDepth commands of distinct log
	// blocks are in flight at once (jwInflight gauges them), while a
	// rewrite of a block with a write still in flight queues behind it.
	// See DESIGN.md §11.
	jwq        []*jwEntry
	jwFree     []*jwEntry
	jwInflight int

	// readAheads maps each page with a scan read-ahead in flight to the
	// ops parked on it (Config.Pipelined; see pipeline.go). The tree
	// holds a shared latch on every such page until the read is reaped.
	readAheads pagemap.Map[[]raWaiter]

	// syncActive serializes sync/checkpoint pipelines; checkpointPending
	// is set while an internal checkpoint op is live so the trigger never
	// double-fires. retryq holds ops sleeping out a transient-failure
	// backoff (or a journal-gate deferral).
	syncActive        bool
	checkpointPending bool
	retryq            []retryEntry

	// failed flips once on the first unrecoverable device error; from then
	// on every live and future operation drains with ErrDeviceFailed
	// instead of wedging the working thread. failCause keeps the root
	// cause for diagnostics.
	failed    bool
	failCause error

	policy  sched.Policy
	ready   sched.ReadyQueue
	stalled []*Op // ops whose submission hit a full queue

	// inbox is the bounded MPSC admission ring; admitters counts producers
	// inside Admit between their stopped-check and their publish, so the
	// worker never exits while an admission is in flight (an op can then
	// neither be lost nor left waiting forever). wake, when non-nil,
	// interrupts a real-environment idle sleep the moment work arrives.
	inbox      *opRing
	admitters  atomic.Int64
	admitWaits atomic.Uint64
	wake       func()
	stopped    atomic.Bool
	running    bool

	// tr is Config.Tracer (nil = tracing off). All emission happens on
	// the working thread; producer-side facts arrive as timestamps on the
	// Op and are emitted retroactively at drain time.
	tr *trace.Tracer

	seq uint64
	// keyDeps serializes in-flight point operations per exact key: the
	// map holds the TAIL of each key's chain, and a newly drained op on a
	// chained key parks behind the tail instead of entering the ready set.
	// Admission order is FIFO (the ring), but execution is pipelined —
	// without the chain a restarted insert (optimistic split retry) or an
	// I/O-suspended write can be overtaken by a later operation on the
	// same key, so a batch's Get could miss its own batch's earlier Put.
	// Range scans and syncs do not participate: they are documented as
	// unordered with respect to concurrent point writes.
	keyDeps    map[uint64]*Op
	liveOps    int
	ioBlocked  int
	charges    [5]time.Duration
	stats      Stats
	pollerLive bool
}

// New creates a tree on dev using an existing on-device image described
// by meta (use Format to initialize a fresh device).
func New(dev nvme.Device, cfg Config, env Env, meta *storage.Meta) (*Tree, error) {
	cfg = cfg.WithDefaults()
	qp, err := dev.AllocQueuePair(cfg.QueueDepth)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:       cfg,
		dev:       dev,
		qp:        qp,
		env:       env,
		rootID:    meta.Root,
		height:    int(meta.Height),
		numKeys:   meta.NumKeys,
		syncEpoch: meta.SyncEpoch,
		alloc:     storage.NewAllocator(meta.Watermark),
		latches:   latch.NewTable(),
		policy:    cfg.Policy,
		inbox:     newOpRing(cfg.InboxDepth),
		tr:        cfg.Tracer,
	}
	t.shardID = meta.ShardID
	t.shardCount = meta.ShardCount
	t.deviceID = meta.DeviceID
	t.deviceCount = meta.DeviceCount
	t.walStart = meta.WALStart
	t.walBlocks = meta.WALBlocks
	t.metaWALGen = meta.WALGen
	if cfg.Journal && meta.WALBlocks > 0 && meta.WALStart > 0 {
		t.wal = wal.NewLog(storage.PageSize, meta.WALBlocks)
		g := meta.WALGen
		if g < 1 {
			g = 1
		}
		t.wal.SetGeneration(g)
		t.journalOn = true
	}
	if w, ok := env.(interface{ Wake() }); ok {
		t.wake = w.Wake
	}
	// The journal makes the log the commit point: every journaled tree
	// acks at log durability and writes its pages back, so Persistence
	// picks the buffer only without it.
	if cfg.Persistence == WeakPersistence || t.journalOn {
		t.rw = buffer.NewReadWrite(cfg.BufferPages)
	} else {
		t.ro = buffer.NewReadOnly(cfg.BufferPages)
	}
	if cfg.Prioritized {
		t.ready = sched.NewPriority()
	} else {
		t.ready = sched.NewFIFO()
	}
	t.stats.Stages = metrics.NewStageSet(numKinds)
	return t, nil
}

// now returns the environment clock.
func (t *Tree) now() sim.Time { return t.env.Now() }

// charge accumulates CPU cost; chargeFlush turns the accumulation into
// actual environment work (one batch per main-loop pass keeps the
// simulated-thread handoff overhead low).
func (t *Tree) charge(cat metrics.CPUCategory, d time.Duration) { t.charges[cat] += d }

func (t *Tree) chargeFlush() {
	for cat, d := range t.charges {
		if d > 0 {
			t.env.Work(metrics.CPUCategory(cat), d)
			t.charges[cat] = 0
		}
	}
}

// Stop makes Run return once all admitted operations have completed.
func (t *Tree) Stop() {
	t.stopped.Store(true)
	if t.wake != nil {
		t.wake()
	}
}

// NowNanos reads the tree's clock: the same timebase its trace events
// carry. Serving-tier tracers (client, server) sample this clock so a
// merged export lines all three processes up on one axis. Safe from any
// goroutine under RealEnv (a monotonic time.Since); simulation harnesses
// call it from the scheduler thread only.
func (t *Tree) NowNanos() int64 { return int64(t.env.Now()) }

// StatsSnapshot returns a copy of the tree statistics (histograms are
// shared references; treat as read-only).
func (t *Tree) StatsSnapshot() Stats {
	st := t.stats
	st.AdmitWaits = t.admitWaits.Load()
	return st
}

// ResetStats zeroes counters and histograms (used by the harness to
// exclude warm-up).
func (t *Tree) ResetStats() {
	stg := t.stats.Stages
	stg.Reset()
	t.stats = Stats{Stages: stg}
	t.latches.ResetStats()
	if t.ro != nil {
		t.ro.ResetStats()
	}
	if t.rw != nil {
		t.rw.ResetStats()
	}
}

// BufferStats returns the active buffer's counters.
func (t *Tree) BufferStats() buffer.Stats {
	if t.rw != nil {
		return t.rw.Stats()
	}
	return t.ro.Stats()
}

// LatchWaits exposes latch contention (Figure 12 analysis).
func (t *Tree) LatchWaits() uint64 { return t.latches.Waits() }

// CPUSnapshot exposes the environment's live per-category CPU account
// (the Figure 9 attribution). Treat as read-only; on the simulated
// environment it reflects virtual CPU actually consumed.
func (t *Tree) CPUSnapshot() *metrics.CPUAccount { return t.env.CPU() }

// Tracer returns the configured lifecycle tracer (nil when tracing is
// off). Snapshot with Tracer().Events() from the working thread.
func (t *Tree) Tracer() *trace.Tracer { return t.tr }

// NumKeys returns the in-memory key count.
func (t *Tree) NumKeys() uint64 { return t.numKeys }

// Height returns the tree height (1 = single leaf).
func (t *Tree) Height() int { return t.height }

// pushReady moves an op into the ready set (idempotent). at is the
// push instant — callers already hold a fresh clock reading for their
// own accounting, so the queue-wait stamp rides along for free.
func (t *Tree) pushReady(o *Op, at sim.Time) {
	if o.inReady {
		return
	}
	o.inReady = true
	o.readyAt = at
	t.charge(metrics.CatSched, t.cfg.Costs.ReadyPushPop)
	t.ready.Push(sched.Entry{Seq: o.seq, HoldsWrite: o.holdsWrite, Op: o})
}

// Run executes the working-thread main loop (Algorithm 2; Algorithm 1 is
// the same loop under the AlwaysProbe policy with a FIFO ready queue).
// It returns after Stop() once every admitted operation has completed.
func (t *Tree) Run() {
	t.running = true
	costs := &t.cfg.Costs
	for {
		t.drainInbox()
		t.promoteRetries()
		progressed := false
		if e, ok := t.ready.Pop(); ok {
			op := e.Op.(*Op)
			op.inReady = false
			if w := t.now().Sub(op.readyAt); w > 0 {
				op.queueWait += w
				if t.tr != nil {
					t.tr.Emit(tcQueueWait, uint16(op.kind), op.seq, 0, int64(op.readyAt), int64(w))
				}
			}
			t.process(op)
			progressed = true
		}
		if t.cfg.Poller == PollerInline {
			t.charge(metrics.CatSched, t.policy.Overhead())
			// Every policy declines with nothing outstanding; checking
			// first skips the clock read on an idle pass.
			if t.ioBlocked > 0 && t.policy.ShouldProbe(t.now(), t.ioBlocked) {
				t.probe(t.policy)
			}
		}
		t.resubmitStalled()
		t.drainBG()
		if t.journalOn && t.ready.Len() == 0 {
			t.journalCommit()
		} else {
			t.jwKick()
		}
		t.maybeCheckpoint()
		t.charge(metrics.CatSched, costs.SchedStep)
		if !progressed && t.ready.Len() == 0 && t.inboxEmpty() {
			// Exit order matters: admitters is read before re-checking the
			// ring so a producer that published between the two reads is
			// seen either via its admitters hold or via the ring itself.
			if t.stopped.Load() && t.liveOps == 0 &&
				t.admitters.Load() == 0 && t.inboxEmpty() {
				break
			}
			if y := t.policy.YieldFor(t.now(), t.ioBlocked); y > 0 {
				t.chargeFlush()
				t.stats.Yields++
				t.stats.YieldTime += y
				if t.tr != nil {
					t.tr.Emit(tcYield, classNone, 0, uint64(t.ioBlocked), int64(t.now()), int64(y))
				}
				t.env.Sleep(y)
			} else {
				// Busy-poll: burn a spin quantum so virtual time advances
				// (this is the CPU waste Figure 13 quantifies).
				t.charge(metrics.CatOther, costs.IdleSpin)
				t.stats.IdleSpinTime += costs.IdleSpin
				if t.wake != nil {
					// A wall-clock worker polling outstanding I/O lets
					// the goroutines it serves run between probes, so on
					// one P it never starves its callers.
					runtime.Gosched()
				}
			}
		}
		t.chargeFlush()
	}
	t.running = false
	t.chargeFlush()
	// Defensive sweep: the admitters protocol means no op should remain,
	// but anything that somehow does must fail rather than strand a
	// waiter.
	for {
		o, ok := t.inbox.Pop()
		if !ok {
			break
		}
		t.failAdmit(o)
	}
}

// PollerPolicy returns the probe policy a dedicated polling thread should
// run: PAD-Tree spins (always probe), PAD+-Tree shares the tree's
// workload-aware policy (which is fed every submission either way).
func (t *Tree) PollerPolicy() sched.Policy {
	if t.cfg.Poller == PollerDedicatedModel {
		return t.policy
	}
	return sched.NewAlwaysProbe()
}

// RunPoller executes a dedicated polling thread (PAD / PAD+, Figure 11).
// Call in its own environment; it exits when the main Run loop exits.
func (t *Tree) RunPoller(env Env, policy sched.Policy) {
	t.pollerLive = true
	costs := &t.cfg.Costs
	for t.running || !t.stopped.Load() {
		env.Work(metrics.CatSched, policy.Overhead())
		if policy.ShouldProbe(env.Now(), t.ioBlocked) {
			t.probePoller(env, policy)
		} else if t.cfg.Poller == PollerDedicatedModel {
			// Model-gated poller sleeps when nothing is predicted,
			// keeping its CPU footprint near zero (PAD+).
			env.Sleep(5 * time.Microsecond)
		} else {
			env.Work(metrics.CatSched, costs.IdleSpin)
		}
	}
	t.pollerLive = false
}

// probe polls the completion queue from the working thread.
func (t *Tree) probe(policy sched.Policy) int {
	t.charge(metrics.CatNVMe, t.cfg.Costs.ProbeCall)
	n := t.qp.Probe(0)
	t.charge(metrics.CatNVMe, time.Duration(n)*t.cfg.Costs.ProbePerCQE)
	now := t.now()
	policy.OnProbe(now)
	t.stats.Probes++
	if n > 0 {
		t.stats.ProbeHits++
		t.stats.CompletionsSeen += uint64(n)
		// Only hitting probes are traced: misses can fire every scheduler
		// step and would flush the ring without adding information (the
		// Probes counter keeps the totals).
		if t.tr != nil {
			t.tr.Emit(tcProbe, classNone, 0, uint64(n), int64(now), trace.Instant)
		}
	}
	return n
}

// probePoller polls from a dedicated thread, paying the cross-thread
// handoff penalty per completion.
func (t *Tree) probePoller(env Env, policy sched.Policy) int {
	env.Work(metrics.CatNVMe, t.cfg.Costs.ProbeCall)
	n := t.qp.Probe(0)
	if n > 0 {
		env.Work(metrics.CatNVMe, time.Duration(n)*t.cfg.Costs.ProbePerCQE)
		env.Work(metrics.CatSync, time.Duration(n)*t.cfg.Costs.CrossThreadHandoff)
	}
	policy.OnProbe(env.Now())
	t.stats.Probes++
	if n > 0 {
		t.stats.ProbeHits++
		t.stats.CompletionsSeen += uint64(n)
	}
	return n
}

// resubmitStalled retries operations whose Submit hit a full queue.
func (t *Tree) resubmitStalled() {
	if len(t.stalled) == 0 {
		return
	}
	batch := t.stalled
	t.stalled = nil
	now := t.now()
	for _, o := range batch {
		t.pushReady(o, now)
	}
}

// ─── Completion ─────────────────────────────────────────────────────────

func (t *Tree) finishOp(o *Op) {
	if o.pendingErr != nil {
		t.failOp(o, o.pendingErr)
		return
	}
	if o.commit != nil {
		o.commit()
		o.commit = nil
	}
	t.completeOp(o)
}

func (t *Tree) failOp(o *Op, err error) {
	o.Res.Err = err
	t.completeOp(o)
}

// opTeardown releases every piece of journal/sync pipeline state an op
// may hold when it terminates, successfully or not.
func (t *Tree) opTeardown(o *Op) {
	if o.keyGated {
		o.keyGated = false
		if next := o.keyNext; next != nil {
			// Hand the key to the next parked op in admission order. The
			// successor pointer must be severed before completeOp recycles
			// this op into the pool.
			o.keyNext = nil
			t.pushReady(next, t.now())
		} else if t.keyDeps[o.key] == o {
			delete(t.keyDeps, o.key)
		}
	}
	if o.jLiveMark {
		o.jLiveMark = false
		t.jLive--
	}
	if o.jParked {
		o.jParked = false
		for i, w := range t.jWaiters {
			if w == o {
				t.jWaiters = append(t.jWaiters[:i], t.jWaiters[i+1:]...)
				break
			}
		}
	}
	if o.syncFenced {
		o.syncFenced = false
		t.jFence = false
		t.syncActive = false
	}
	if o.internal && o.kind == KindSync {
		t.checkpointPending = false
	}
}

// completeOp retires a finished or failed op: it drops the op's latches
// and pipeline state, records its latency and stage timings, and runs its
// completion callback, timing the delivery. The callback may Release o
// back to the pool, so every field used afterwards is captured first.
func (t *Tree) completeOp(o *Op) {
	t.releaseAll(o)
	t.opTeardown(o)
	o.state = stDone
	o.Res.Completed = t.now()
	t.liveOps--
	t.stats.Completed[o.kind]++
	t.recordStages(o)
	if t.tr != nil {
		t.tr.Emit(tcOp, uint16(o.kind), o.seq, uint64(o.key), int64(o.Res.Admitted), int64(o.Res.Latency()))
		if o.Span != 0 {
			// Cross-process link: lets trace.Stitch tie this op back to the
			// serving span that produced it. Never fires in simulation runs
			// (nothing sets Span there), keeping sim traces byte-identical.
			t.tr.Emit(tcSpan, uint16(o.kind), o.seq, o.Span, int64(o.Res.Completed), trace.Instant)
		}
	}
	kind, seq, done := o.kind, o.seq, o.Res.Completed
	if o.Done != nil {
		o.Done(o)
		d := t.now().Sub(done)
		t.stats.Stages.Record(metrics.StageDeliver, int(kind), d)
		if t.tr != nil && d > 0 {
			t.tr.Emit(tcDeliver, uint16(kind), seq, 0, int64(done), int64(d))
		}
	}
}

// recordStages folds a completing op's timestamps into the per-stage
// histograms. Admit-wait, latch-wait and io-wait are recorded only when
// the op actually waited there (see Stats.Stages).
func (t *Tree) recordStages(o *Op) {
	st := t.stats.Stages
	k := int(o.kind)
	if aw := o.enqueuedAt.Sub(o.Res.Admitted); aw > 0 {
		st.Record(metrics.StageAdmitWait, k, aw)
	}
	st.Record(metrics.StageInbox, k, o.drainedAt.Sub(o.enqueuedAt))
	st.Record(metrics.StageQueueWait, k, o.queueWait)
	if o.latchWait > 0 {
		st.Record(metrics.StageLatchWait, k, o.latchWait)
	}
	if o.ioWait > 0 {
		st.Record(metrics.StageIOWait, k, o.ioWait)
	}
	st.Record(metrics.StageTotal, k, o.Res.Latency())
}
