package core

// This file is every way the package hands a command to a device. The
// working thread has exactly one: Tree.submit, reaped by Tree.reap
// (Algorithm 2's "submit to the queue pair" and "process the completion").
// Everything that runs before a worker exists (Format, ReadMeta, Recover)
// goes through the blocking setupIO helper at the bottom.
//
// Command classes and what the seam does for each:
//
//	class            issued by       queue full        transient error            counters
//	demand read      submitRead      stall the op      op budget, backoff, rerun  ReadsIssued
//	read-ahead run   readAhead       give up the rest  dropped whole, no retry    ReadsIssued ReadAheads
//	op write         submitOpWrite   stall the op      op budget, backoff, rerun  WritesIssued
//	write-back       submitBG        stays in bgQueue  own budget, backoff        WritesIssued
//	WAL block run    jwSubmit        stays in jwq      entry budget, resubmit     WritesIssued JournalWriteCommands JournalBlockWrites
//	sync page        submitSyncPage  stall the op      op budget, requeue page    WritesIssued
//	sync phase write submitSyncCmd   stall the op      op budget, resend phase    WritesIssued
//	flush            submitSyncCmd   stall the op      op budget, resend phase    —
//
// A read-ahead run holds a shared latch on each of its pages from issue
// until it is reaped, whatever the verdict, so no write of those pages can
// be submitted while it is in flight. No write site has to check for one.
//
// Every errored command counts in Stats.IOErrors and every retry in
// Stats.IORetries. A budget is Config.MaxIORetries transient statuses;
// beyond it, or on any other status, the tree enters the failed state.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"github.com/patree/patree/internal/buffer"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
)

// ErrDeviceFailed is the terminal error: an I/O failed beyond the retry
// budget (or with a non-transient status), the tree entered its failed
// state, and every live and future operation completes with this error.
// The working thread keeps running so pending operations drain cleanly;
// Tree.FailCause reports the underlying device error.
var ErrDeviceFailed = errors.New("core: device failed")

// errCorruptRead marks a read whose page image failed storage.VerifyPage
// (bit rot, a torn write surfacing later, a misdirected read, a malformed
// page). It is transient from the retry machinery's point of view: a
// re-read may return clean data.
var errCorruptRead = errors.New("core: page image failed verification")

// transientIOErr reports whether a device error is worth retrying.
func transientIOErr(err error) bool {
	return errors.Is(err, nvme.ErrMedia) || errors.Is(err, nvme.ErrTimeout) || errors.Is(err, errCorruptRead)
}

// ioResult is the seam's verdict on a reaped command.
type ioResult uint8

const (
	ioOK      ioResult = iota
	ioRetry            // transient error, one retry charged to the budget: issue it again
	ioDropped          // errored with no budget to draw on (advisory command): forget it
	ioFailed           // budget spent or terminal status: the tree has entered the failed state
)

// ioCmd is one worker-issued device command between submit and reap. It
// embeds the nvme.Command so command and context are one allocation; the
// completion closure is the other, built on first submit and kept, so a
// reused command (a WAL writer entry) allocates neither again.
type ioCmd struct {
	nvme.Command
	// op is the operation the command belongs to: it is stalled when the
	// queue is full, credited the I/O wait, named in the trace event and
	// handed ErrDeviceFailed on terminal failure. Nil for tree-level
	// traffic (write-backs, WAL blocks, read-aheads), which stays
	// in its own queue — or is dropped — when the submission queue is full.
	op *Op
	// retries is the budget transient errors draw from, compared against
	// Config.MaxIORetries when the error is reaped. Nil means errors are
	// never retried and never fail the tree.
	retries *int
	// done is the class's completion handler, a method expression so it
	// costs no closure.
	done      func(t *Tree, c *ioCmd, res ioResult, now sim.Time)
	callback  func(nvme.Completion)
	submitted sim.Time

	// Class payload, read back by done. Four fields for eight classes is
	// the price of not allocating a second closure per command; a class
	// that needs more goes behind one pointer field, not more fields here.
	epoch uint64   // write-back, sync page: buffer epoch of the image being persisted
	tries int      // write-back, WAL block: its budget (retries points here)
	jw    *jwEntry // WAL block: its writer-queue entry
	onOK  func()   // sync phase command: advances the phase
}

// dirty is the buffer entry a write-back or sync-page command persists.
func (c *ioCmd) dirty() buffer.Dirty {
	return buffer.Dirty{ID: storage.PageID(c.LBA), Data: c.Buf, Epoch: c.epoch}
}

// pageRead builds a read of n pages from id and pageWrite a one-page
// write: the commands every class but the flush issues.
func pageRead(id storage.PageID, n int) nvme.Command {
	return nvme.Command{Op: nvme.OpRead, LBA: uint64(id), Blocks: n, Buf: make([]byte, n*storage.PageSize)}
}

func pageWrite(id storage.PageID, data []byte) nvme.Command {
	return nvme.Command{Op: nvme.OpWrite, LBA: uint64(id), Blocks: 1, Buf: data}
}

// submit hands c to the queue pair. It returns false when the command was
// not accepted; c.op, if any, is then on the stalled list and re-enters
// the ready set on the next main-loop pass.
func (t *Tree) submit(c *ioCmd) bool {
	c.submitted = t.clock
	if c.callback == nil {
		c.callback = func(done nvme.Completion) { t.reap(c, done.Err) }
	}
	c.Callback = c.callback // set each time: a wrapping device may have replaced it
	t.charge(metrics.CatNVMe, t.costs.IOSubmit)
	if err := t.qp.Submit(&c.Command); err != nil {
		if c.op != nil {
			t.stalled = append(t.stalled, c.op)
		}
		return false
	}
	t.policy.OnSubmit(c.Op, c.submitted)
	t.ioBlocked++
	switch c.Op {
	case nvme.OpRead:
		t.stats.ReadsIssued++
	case nvme.OpWrite:
		t.stats.WritesIssued++
	}
	return true
}

// reap runs when a probe detects c's completion: it settles the
// bookkeeping submit opened, classifies an error against the budget, and
// hands the verdict to the class handler.
func (t *Tree) reap(c *ioCmd, err error) {
	t.ioBlocked--
	// A fresh reading: a submit and its reap can share a pass, and a
	// dedicated poller reaps on a thread of its own.
	now := t.tick()
	t.policy.OnDetected(c.Op, c.submitted, now)
	class, seq := uint16(classNone), uint64(0)
	if o := c.op; o != nil {
		o.ioWait += now.Sub(c.submitted)
		class, seq = uint16(o.kind), o.seq
	}
	if t.tr != nil {
		code := uint16(tcIOWrite)
		if c.Op == nvme.OpRead {
			code = tcIORead
		}
		t.tr.Emit(code, class, seq, c.LBA, int64(c.submitted), int64(now.Sub(c.submitted)))
	}
	for i := 0; err == nil && c.Op == nvme.OpRead && i < c.Blocks; i++ {
		if !storage.VerifyPage(storage.PageID(c.LBA)+storage.PageID(i), c.Buf[i*storage.PageSize:]) {
			// Bit rot, a torn write, a misdirected read or a malformed
			// page: never admit an image that fails verification into the
			// buffers. A re-read may heal transient corruption.
			err = errCorruptRead
		}
	}
	res := ioOK
	if err != nil {
		t.stats.IOErrors++
		switch {
		case c.retries == nil:
			res = ioDropped
		case !t.failed && transientIOErr(err) && *c.retries < t.cfg.MaxIORetries:
			*c.retries++
			t.stats.IORetries++
			res = ioRetry
		default:
			t.enterFailed(err)
			if c.op != nil {
				c.op.pendingErr = ErrDeviceFailed
			}
			res = ioFailed
		}
	}
	c.done(t, c, res, now)
}

// ─── Retries and the terminal failed state ──────────────────────────────

// retryEntry parks an op until its backoff elapses (promoteRetries).
type retryEntry struct {
	op  *Op
	due sim.Time
}

// retryDelay is the exponential backoff before the attempt-th retry.
func (t *Tree) retryDelay(attempt int) time.Duration {
	d := t.cfg.RetryBackoff
	for i := 1; i < attempt && d < time.Second; i++ {
		d *= 2
	}
	return d
}

// scheduleRetry parks o until its backoff elapses. Only ops with no
// other pending wake-up source (no outstanding commands, no latch
// request) may be parked here, so a promotion can never double-schedule
// an op that moved on in the meantime.
func (t *Tree) scheduleRetry(o *Op, d time.Duration) {
	t.retryq = append(t.retryq, retryEntry{op: o, due: t.clock.Add(d)})
}

// promoteRetries pushes parked ops whose backoff elapsed back into the
// ready set. In the failed state every entry is promoted immediately so
// the pipeline drains without waiting out backoffs.
func (t *Tree) promoteRetries() {
	if len(t.retryq) == 0 {
		return
	}
	rest := t.retryq[:0]
	for _, e := range t.retryq {
		if t.failed || e.due <= t.clock {
			t.pushReady(e.op, t.clock)
		} else {
			rest = append(rest, e)
		}
	}
	t.retryq = rest
}

// enterFailed flips the tree into its terminal failed state: background
// write-backs are dropped and every parked operation is woken so it
// drains with ErrDeviceFailed. The working thread itself stays healthy —
// Run keeps going until every live op has completed, so no waiter is
// stranded and Close still works.
func (t *Tree) enterFailed(cause error) {
	if t.failed {
		return
	}
	t.failed = true
	t.failCause = cause
	t.bgQueue = t.bgQueue[:0]
	t.promoteRetries()
	t.promoteJWaiters()
	// Wake ops parked on read-aheads, in page order so a failed run
	// replays: the failed drain at the top of process() handles them, and
	// the reads' own completions will find no waiters left.
	ids := t.readAheads.Keys(nil)
	slices.Sort(ids)
	for _, id := range ids {
		t.wakeReadAhead(id, t.clock)
	}
}

// Failed reports whether the tree is in the terminal failed state.
// Worker-thread only.
func (t *Tree) Failed() bool { return t.failed }

// FailCause returns the device error that moved the tree into the failed
// state (nil while healthy). Worker-thread only.
func (t *Tree) FailCause() error { return t.failCause }

// ─── Background write-back (weak or journaled) ──────────────────────────

// bgWrite is one queued background write-back, with its retry budget and
// the earliest instant it may be (re)submitted.
type bgWrite struct {
	buffer.Dirty
	retries int
	due     sim.Time
}

// bufferWrite stores a page update in the buffer, dirty, and schedules
// any evicted dirty victim for background write-back. With the journal on, the page
// is held from the device until journalBuild, which runs next, has logged
// it and says where (walHolds).
func (t *Tree) bufferWrite(id storage.PageID, data []byte) {
	if t.journalOn {
		t.jPageEnd.Put(id, math.MaxInt)
	}
	if victim, ev := t.buf.Write(id, data); ev {
		t.queueBG(victim)
	}
	// With buffering disabled (capacity 0) the write must still reach the
	// device: treat it as its own write-back.
	if t.buf.Len() == 0 {
		t.queueBG(buffer.Dirty{ID: id, Data: data, Epoch: 0})
	}
}

func (t *Tree) queueBG(d buffer.Dirty) {
	if t.failed {
		return // terminal state: durability is already lost, drop quietly
	}
	// From here until it lands the image is the page's only current copy
	// outside the buffer: a read miss must find it, not the device's.
	t.inflight.Put(d.ID, d.Data)
	// Coalesce with a queued-but-unsubmitted write of the same page: the
	// newest image supersedes (same-page submission order must hold, or a
	// retried stale image could overwrite fresher data).
	for i := range t.bgQueue {
		if t.bgQueue[i].ID == d.ID {
			t.bgQueue[i].Dirty = d
			t.bgQueue[i].retries = 0
			t.bgQueue[i].due = 0
			t.drainBG()
			return
		}
	}
	t.bgQueue = append(t.bgQueue, bgWrite{Dirty: d})
	t.drainBG()
}

// drainBG submits queued background write-backs whose backoff has
// elapsed and whose records are durable (walHolds), leaving the rest
// queued when the submission queue is full.
func (t *Tree) drainBG() {
	if len(t.bgQueue) == 0 {
		return
	}
	if t.failed {
		t.bgQueue = t.bgQueue[:0]
		return
	}
	rest := t.bgQueue[:0]
	for i := 0; i < len(t.bgQueue); i++ {
		w := t.bgQueue[i]
		if w.due > t.clock || t.walHolds(w.ID) {
			rest = append(rest, w)
			continue
		}
		if !t.submitBG(w) {
			// Submission queue full: keep this and everything after it.
			rest = append(rest, t.bgQueue[i:]...)
			break
		}
	}
	t.bgQueue = rest
}

// submitBG issues one background write-back. Returns false when the
// submission queue is full (the entry stays queued). A transient error
// re-queues the write with backoff until its retry budget runs out.
func (t *Tree) submitBG(w bgWrite) bool {
	c := &ioCmd{
		Command: pageWrite(w.ID, w.Data),
		done:    (*Tree).bgDone,
		epoch:   w.Epoch,
		tries:   w.retries,
	}
	c.retries = &c.tries
	return t.submit(c) // false: retried by the main loop's drainBG
}

func (t *Tree) bgDone(c *ioCmd, res ioResult, now sim.Time) {
	d := c.dirty()
	if res == ioRetry {
		t.requeueBG(bgWrite{Dirty: d, retries: c.tries, due: now.Add(t.retryDelay(c.tries))})
		return
	}
	if cur, ok := t.inflight.Get(d.ID); ok && &cur[0] == &d.Data[0] {
		t.inflight.Delete(d.ID)
	}
	if res == ioOK && d.Epoch != 0 {
		t.buf.MarkClean(d.ID, d.Epoch)
	}
}

// requeueBG re-queues a failed background write for retry — unless a
// newer image of the same page is queued or in flight, which supersedes
// it.
func (t *Tree) requeueBG(w bgWrite) {
	if cur, _ := t.inflight.Get(w.ID); len(cur) > 0 && &cur[0] == &w.Data[0] {
		t.bgQueue = append(t.bgQueue, w)
	}
}

// ─── Setup I/O: blocking, before any worker runs ───────────────────────

// Format initializes a fresh device with an empty tree (meta page + empty
// root leaf) using direct synchronous I/O, and returns the meta image.
// When the device is large enough, a WAL region is carved from its top
// and recorded in the meta page; the redo journal (Config.Journal) and
// crash recovery use it, and it costs nothing when left disabled.
func Format(dev nvme.Device) (*storage.Meta, error) {
	return FormatShard(dev, 0, 0)
}

// FormatShard is Format with a shard identity stamped into the meta
// page: shard id of count trees hash-partitioning one keyspace
// (0 of 0 = unsharded). Open-time checks compare the recorded identity
// against the requested shard layout, so a device formatted for one
// layout cannot silently open under another.
func FormatShard(dev nvme.Device, id, count uint16) (*storage.Meta, error) {
	return FormatShardDevice(dev, id, count, 0, 0)
}

// FormatShardDevice is FormatShard with a device placement stamped
// alongside the shard identity: the shard lives on device devID of
// devCount in a multi-device topology (0 of 0 = single-device layout).
// Open-time checks compare it against the offered device list, so a
// topology formatted across M devices cannot silently open with a
// different device count or order.
func FormatShardDevice(dev nvme.Device, id, count, devID, devCount uint16) (*storage.Meta, error) {
	root := storage.NewLeaf(1)
	walStart, walBlocks := walGeometry(dev.NumBlocks())
	meta := &storage.Meta{Root: 1, Height: 1, Watermark: 2,
		WALStart: walStart, WALBlocks: walBlocks,
		ShardID: id, ShardCount: count,
		DeviceID: devID, DeviceCount: devCount}
	var cmds []nvme.Command
	if walBlocks > 0 {
		meta.WALGen = 1
		// Zero the region's first block so stale frames from a previous
		// life of the device can never be replayed.
		cmds = append(cmds, pageWrite(storage.PageID(walStart), make([]byte, storage.PageSize)))
	}
	cmds = append(cmds, pageWrite(1, root.Encode()), pageWrite(0, meta.Encode()))
	if err := syncIO(dev, cmds...); err != nil {
		return nil, err
	}
	return meta, nil
}

// ReadMeta loads the meta page from the device synchronously.
func ReadMeta(dev nvme.Device) (*storage.Meta, error) {
	page0 := pageRead(0, 1)
	if err := syncIO(dev, page0); err != nil {
		return nil, err
	}
	return storage.DecodeMeta(page0.Buf)
}

// syncIO runs cmds one after another on a queue pair of its own.
func syncIO(dev nvme.Device, cmds ...nvme.Command) error {
	s, err := newSetupIO(dev)
	if err != nil {
		return err
	}
	defer s.close()
	return s.seq(cmds...)
}

// setupDepth is the queue-pair depth setup I/O asks for (a device may grant
// less: run learns that from ErrQueueFull); setupRetries is each command's
// budget of transient statuses, the default of Config.MaxIORetries.
const setupDepth, setupRetries = 32, 3

// setupIO is the one blocking submitter of everything that runs before a
// worker exists (Format, ReadMeta, Recover): a queue pair kept as full as
// the caller's commands allow, completions reaped in whatever order they
// arrive. Recover holds one throughout: the simulated device never recycles
// queue-pair slots, so a pair per command would exhaust it.
type setupIO struct {
	dev      nvme.Device
	qp       nvme.QueuePair
	slots    [setupDepth]setupSlot
	free     []int // slots with no command in flight
	reaped   []int // slots whose completion arrived and awaits run's verdict
	inflight int
}

// setupSlot is one command between submit and verdict.
type setupSlot struct {
	cmd   nvme.Command
	cb    func(nvme.Completion)
	item  int // the caller's index of the command
	tries int
	err   error
}

func newSetupIO(dev nvme.Device) (*setupIO, error) {
	qp, err := dev.AllocQueuePair(setupDepth)
	if err != nil {
		return nil, err
	}
	s := &setupIO{dev: dev, qp: qp}
	for k := range s.slots {
		s.slots[k].cb = func(c nvme.Completion) {
			s.slots[k].err = c.Err
			s.reaped = append(s.reaped, k)
			s.inflight--
		}
		s.free = append(s.free, k)
	}
	return s, nil
}

func (s *setupIO) close() { s.qp.Free() }

// seq runs cmds one at a time, each complete before the next is issued.
func (s *setupIO) seq(cmds ...nvme.Command) error {
	for i := range cmds {
		if err := s.run(1, func(int, int) nvme.Command { return cmds[i] }, nil); err != nil {
			return err
		}
	}
	return nil
}

// run issues commands 0..n-1 in order, as many in flight as the pair
// takes, and returns once none is. issue(i, slot) builds command i (again,
// should the pair turn it away); the slot (< setupDepth) is the command's
// alone until its verdict, so callers index per-slot buffers by it. done(i, slot), when not nil, runs as
// command i completes without a device error, in completion order, and
// may fail it with a verdict of its own (a checksum). A transient error,
// the device's or done's, reissues the command up to setupRetries times.
// The first error that stands ends issue and done; run still drains what
// is in flight before returning it, so no completion lands in a buffer and
// no callback fires after run has returned (a timeout excepted: the
// commands it gave up on are still the device's).
func (s *setupIO) run(n int, issue func(i, slot int) nvme.Command, done func(i, slot int) error) error {
	var first error
	for next := 0; ; {
		for first == nil && next < n && len(s.free) > 0 {
			k := s.free[len(s.free)-1]
			sl := &s.slots[k]
			sl.cmd, sl.item, sl.tries = issue(next, k), next, 0
			if err := s.submit(k); errors.Is(err, nvme.ErrQueueFull) && s.inflight > 0 {
				// The device granted a shallower pair than asked for: what
				// is in flight is its depth, and the spare slots go unused.
				s.free = s.free[:0]
			} else if err != nil {
				first = err
			} else {
				s.free = s.free[:len(s.free)-1]
				next++
			}
		}
		if s.inflight == 0 {
			return first
		}
		if err := s.wait(); err != nil {
			return err
		}
		for _, k := range s.reaped {
			sl := &s.slots[k]
			err := sl.err
			if err == nil && first == nil && done != nil {
				err = done(sl.item, k)
			}
			if err != nil && first == nil && transientIOErr(err) && sl.tries < setupRetries {
				sl.tries++
				if err = s.submit(k); err == nil {
					continue
				}
			}
			if err != nil && first == nil {
				first = err
			}
			s.free = append(s.free, k)
		}
		s.reaped = s.reaped[:0]
	}
}

func (s *setupIO) submit(k int) error {
	sl := &s.slots[k]
	sl.cmd.Callback = sl.cb
	err := s.qp.Submit(&sl.cmd)
	if err == nil {
		s.inflight++
	}
	return err
}

// wait blocks until at least one in-flight command's callback has run.
func (s *setupIO) wait() error {
	// On a simulated device (or a partition/fault wrapper over one) Advance
	// drains the engine and the completions are there at once; over a
	// real-time device it is a no-op and they are polled for. An empty probe
	// yields — with one P a device that completes on another goroutine would
	// need this very processor — and every 1024th looks at the 10 s deadline.
	if sd, ok := s.dev.(interface{ Advance() }); ok {
		sd.Advance()
	}
	s.qp.Probe(0)
	for start, spins := time.Now(), 1; len(s.reaped) == 0; spins++ {
		runtime.Gosched()
		s.qp.Probe(0)
		if spins%1024 == 0 && time.Since(start) > 10*time.Second {
			return fmt.Errorf("core: setup I/O timed out with %d commands in flight", s.inflight)
		}
	}
	return nil
}
