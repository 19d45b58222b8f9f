package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/patree/patree/internal/buffer"
	"github.com/patree/patree/internal/latch"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/trace"
)

// scriptQP is a queue pair the test drives by hand: Submit accepts or
// bounces on command, and nothing completes until the test says so and
// with what status.
type scriptQP struct {
	full    bool
	pending []*nvme.Command
}

func (q *scriptQP) Submit(c *nvme.Command) error {
	if q.full {
		return nvme.ErrQueueFull
	}
	q.pending = append(q.pending, c)
	return nil
}
func (q *scriptQP) Probe(int) int    { return 0 }
func (q *scriptQP) Outstanding() int { return len(q.pending) }
func (q *scriptQP) Free() error      { return nil }

// complete reaps the oldest accepted command with status err.
func (q *scriptQP) complete(err error) { q.completeAt(0, err) }

// completeAt reaps the i-th oldest accepted command with status err. A
// successful read gets in every block it covers the sealed empty leaf of
// that block's page.
func (q *scriptQP) completeAt(i int, err error) {
	c := q.pending[i]
	q.pending = append(q.pending[:i], q.pending[i+1:]...)
	if err == nil && c.Op == nvme.OpRead {
		fillLeaves(c)
	}
	c.Callback(nvme.Completion{Cmd: c, Err: err})
}

func fillLeaves(c *nvme.Command) {
	for b := range c.Blocks {
		storage.NewLeaf(storage.PageID(c.LBA + uint64(b))).EncodeTo(c.Buf[b*storage.PageSize:])
	}
}

type scriptDev struct{ qp *scriptQP }

func (d scriptDev) AllocQueuePair(int) (nvme.QueuePair, error) { return d.qp, nil }
func (scriptDev) BlockSize() int                               { return storage.PageSize }
func (scriptDev) NumBlocks() uint64                            { return 1 << 16 }
func (scriptDev) Close() error                                 { return nil }

// tickEnv is a clock that advances 1µs per reading, so every wait the
// seam measures is non-zero and every backoff lies in the future.
type tickEnv struct {
	now sim.Time
	cpu metrics.CPUAccount
}

func (e *tickEnv) Now() sim.Time                               { e.now += sim.Time(time.Microsecond); return e.now }
func (e *tickEnv) Work(c metrics.CPUCategory, d time.Duration) { e.cpu.Charge(c, d) }
func (e *tickEnv) Sleep(time.Duration)                         {}
func (e *tickEnv) CPU() *metrics.CPUAccount                    { return &e.cpu }

// seamTree builds a tree over a scripted queue pair. Run is never
// started: the test plays the working thread and calls the submit sites
// directly.
func seamTree(t *testing.T, cfg Config) (*Tree, *scriptQP) {
	t.Helper()
	qp := &scriptQP{}
	cfg.Policy = sched.NewAlwaysProbe()
	cfg.MaxIORetries = 2
	meta := &storage.Meta{Root: 1, Height: 1, Watermark: 2, WALStart: 1 << 15, WALBlocks: 256, WALGen: 1}
	tree, err := New(scriptDev{qp}, cfg, &tickEnv{}, meta)
	if err != nil {
		t.Fatal(err)
	}
	return tree, qp
}

// seamPage is the page every class in the table reads or writes.
const seamPage storage.PageID = 5

// ioClassRow is one command class: how to issue one command of it for
// seamPage, and where the seam's verdicts must leave it.
type ioClassRow struct {
	name string
	cfg  Config
	// issue submits one command through the class's real site. o is a
	// live op for the classes that have an owner, nil otherwise.
	issue         func(t *Tree, o *Op)
	owner         bool   // has an owning op: stalled when full, handed ErrDeviceFailed on terminal failure
	latched       bool   // holds a shared latch on each page it covers from issue until reaped
	reads, writes uint64 // ReadsIssued / WritesIssued per accepted command
	// kept reports whether a bounced command is still where the main
	// loop will find it (tree-level classes; owners are on t.stalled).
	kept func(t *Tree) bool
	// retried reports whether a transient error put the command back on
	// its class's retry path. Nil for the class that has none: an error
	// drops it, and never fails the tree.
	retried func(t *Tree, o *Op, qp *scriptQP) bool
	// reaped reports whether a reaped command left its pages and waiters
	// where the class's verdict puts them; clean is an OK completion. Nil
	// for the classes the shared checks cover.
	reaped func(t *Tree, clean bool) bool
}

var weakCfg = Config{Persistence: WeakPersistence, BufferPages: 8}
var journalCfg = Config{Persistence: WeakPersistence, BufferPages: 8, Journal: true}
var pipelinedCfg = Config{Pipelined: true, BufferPages: 8}

// raRun is how many pages issueReadAhead's run covers.
const raRun = 3

// issueReadAhead has a scan read ahead from a level-1 parent whose
// children from the scan's own on are seamPage and the two pages after
// it: one run of raRun pages. An op then reaches each page of the run and
// parks on it (the stReadNode path), so the run has waiters to wake.
func issueReadAhead(t *Tree) {
	parent := storage.NewInner(1, 1)
	parent.Children = []storage.PageID{2, seamPage, seamPage + 1, seamPage + 2}
	parent.Keys = []uint64{100, 200, 300}
	t.readAhead(NewRange(100, ^uint64(0), 0, nil), parent.Encode(), 1)
	for id := seamPage; id < seamPage+raRun; id++ {
		if _, reading := t.readAheads.Get(id); reading {
			w := NewSearch(uint64(id), nil)
			t.enroll(w, stReadNode)
			w.cur = id
			t.process(w)
		}
	}
}

// raReaped reports whether a reaped run filled every page (clean) or
// none, and woke every op parked on it.
func raReaped(t *Tree, clean bool) bool {
	for id := seamPage; id < seamPage+raRun; id++ {
		if t.resident(id) != clean {
			return false
		}
	}
	return t.readAheads.Len() == 0 && t.ready.Len() == raRun && t.stats.ReadAheadHits == raRun
}

func ioClassRows() []ioClassRow {
	page := storage.NewLeaf(seamPage).Encode()
	return []ioClassRow{
		{
			name: "demand read", owner: true, reads: 1,
			issue:   func(t *Tree, o *Op) { o.cur = seamPage; t.submitRead(o) },
			retried: func(t *Tree, o *Op, _ *scriptQP) bool { return len(t.retryq) == 1 && t.retryq[0].op == o && !o.inReady },
		},
		{
			name: "read-ahead", cfg: pipelinedCfg, latched: true, reads: 1,
			issue:  func(t *Tree, _ *Op) { issueReadAhead(t) },
			kept:   func(t *Tree) bool { return t.readAheads.Len() == 0 }, // given up: nothing retained
			reaped: raReaped,
		},
		{
			name: "op write", owner: true, writes: 1,
			issue: func(t *Tree, o *Op) {
				o.writes, o.wIdx = []writeReq{{id: seamPage, data: page}}, 0
				t.submitOpWrite(o)
			},
			retried: func(t *Tree, o *Op, _ *scriptQP) bool { return len(t.retryq) == 1 && o.wIdx == 0 && !o.inReady },
		},
		{
			name: "background write-back", cfg: weakCfg, writes: 1,
			// Queued or in flight, the image stays where a read miss finds it.
			issue: func(t *Tree, _ *Op) { t.queueBG(buffer.Dirty{ID: seamPage, Data: page}) },
			kept:  func(t *Tree) bool { return len(t.bgQueue) == 1 && t.inflight.Len() == 1 },
			retried: func(t *Tree, _ *Op, _ *scriptQP) bool {
				return len(t.bgQueue) == 1 && t.bgQueue[0].retries == 1 && t.bgQueue[0].due > t.now() && t.inflight.Len() == 1
			},
		},
		{
			name: "WAL block", cfg: journalCfg, writes: 1,
			issue: func(t *Tree, _ *Op) { t.jwEnqueue(seamPage, page, 0); t.jwKick() },
			kept:  func(t *Tree) bool { return len(t.jwq) == 1 && !t.jwq[0].inflight && t.jwInflight == 0 },
			retried: func(t *Tree, _ *Op, qp *scriptQP) bool {
				return len(qp.pending) == 1 && t.jwq[0].inflight && t.jwq[0].cmd.tries == 1
			},
		},
		{
			name: "sync page", cfg: weakCfg, owner: true, writes: 1,
			issue: func(t *Tree, o *Op) { t.submitSyncPage(o, buffer.Dirty{ID: seamPage, Data: page}) },
			retried: func(t *Tree, o *Op, _ *scriptQP) bool {
				return len(o.syncQueue) == 1 && o.syncQueue[0].ID == seamPage && o.syncOutstanding == 0 && o.inReady
			},
		},
		{
			name: "sync phase write", cfg: weakCfg, owner: true, writes: 1,
			issue: func(t *Tree, o *Op) {
				o.syncSent = t.submitSyncCmd(o, pageWrite(seamPage, page), func() { o.syncPhase = spDone })
			},
			retried: func(t *Tree, o *Op, _ *scriptQP) bool { return !o.syncSent && o.syncOutstanding == 0 && o.inReady },
		},
		{
			name: "flush", cfg: weakCfg, owner: true,
			issue: func(t *Tree, o *Op) {
				o.syncSent = t.submitSyncCmd(o, nvme.Command{Op: nvme.OpFlush}, func() { o.syncPhase = spDone })
			},
			retried: func(t *Tree, o *Op, _ *scriptQP) bool { return !o.syncSent && o.syncOutstanding == 0 && o.inReady },
		},
	}
}

// TestIOSeamClasses drives every command class through Tree.submit and
// Tree.reap over a scripted queue pair and checks the class's declared
// queue-full policy, error policy and counters (the table in io.go).
// Whatever the verdict, no command leaves a latch behind.
func TestIOSeamClasses(t *testing.T) {
	terminal := errors.New("controller gone")
	for _, row := range ioClassRows() {
		row := row
		setup := func(t *testing.T) (*Tree, *scriptQP, *Op) {
			tree, qp := seamTree(t, row.cfg)
			var o *Op
			if row.owner {
				o = NewSync(nil)
				tree.enroll(o, stDone)
			}
			return tree, qp, o
		}
		unlatched := func(t *testing.T, tree *Tree, after string) {
			t.Helper()
			if n := tree.latches.ActiveNodes(); n != 0 {
				t.Errorf("%d pages still latched after %s", n, after)
			}
		}

		t.Run(row.name+"/accepted", func(t *testing.T) {
			tree, qp, o := setup(t)
			row.issue(tree, o)
			if len(qp.pending) != 1 || tree.ioBlocked != 1 {
				t.Fatalf("after issue: %d commands on the queue, ioBlocked=%d, want 1", len(qp.pending), tree.ioBlocked)
			}
			for b := uint64(0); row.latched && b < uint64(qp.pending[0].Blocks); b++ {
				id := storage.PageID(qp.pending[0].LBA + b)
				if r, w := tree.latches.Held(id); r != 1 || w != 0 {
					t.Fatalf("in flight: latch on page %d is (r=%d, w=%d), want one shared", id, r, w)
				}
			}
			if tree.stats.ReadsIssued != row.reads || tree.stats.WritesIssued != row.writes {
				t.Errorf("issue counters: reads=%d writes=%d, want %d and %d",
					tree.stats.ReadsIssued, tree.stats.WritesIssued, row.reads, row.writes)
			}
			for len(qp.pending) > 0 {
				qp.complete(nil)
			}
			if tree.ioBlocked != 0 {
				t.Errorf("ioBlocked=%d after every completion was reaped", tree.ioBlocked)
			}
			if tree.stats.IOErrors != 0 || tree.stats.IORetries != 0 || tree.failed {
				t.Errorf("clean completion moved the error state: %+v failed=%v", tree.stats, tree.failed)
			}
			if o != nil && (o.ioWait <= 0 || !o.inReady) {
				t.Errorf("owner after completion: ioWait=%v inReady=%v", o.ioWait, o.inReady)
			}
			if row.reaped != nil && !row.reaped(tree, true) {
				t.Error("an OK completion left pages unfilled or waiters parked")
			}
			unlatched(t, tree, "an OK completion")
		})

		t.Run(row.name+"/queue full", func(t *testing.T) {
			tree, qp, o := setup(t)
			qp.full = true
			row.issue(tree, o)
			if tree.ioBlocked != 0 || tree.stats.ReadsIssued+tree.stats.WritesIssued != 0 {
				t.Fatalf("bounced command was accounted as issued: ioBlocked=%d stats=%+v", tree.ioBlocked, tree.stats)
			}
			if row.owner {
				if len(tree.stalled) != 1 || tree.stalled[0] != o {
					t.Fatalf("owner not on the stalled list: %v", tree.stalled)
				}
				tree.resubmitStalled()
				if !o.inReady {
					t.Fatal("stalled owner did not re-enter the ready set")
				}
			} else {
				if len(tree.stalled) != 0 {
					t.Fatalf("ownerless command stalled something: %v", tree.stalled)
				}
				if !row.kept(tree) {
					t.Fatal("bounced command is not where its class's policy leaves it")
				}
			}
			unlatched(t, tree, "a bounced submit")
			// Whatever was kept goes out once the queue has room.
			qp.full = false
			tree.drainBG()
			tree.jwKick()
			if !row.owner && row.retried != nil && len(qp.pending) != 1 {
				t.Fatalf("kept command did not go out on the next pass: %d pending", len(qp.pending))
			}
		})

		t.Run(row.name+"/transient error", func(t *testing.T) {
			tree, qp, o := setup(t)
			row.issue(tree, o)
			qp.complete(nvme.ErrTimeout)
			if tree.stats.IOErrors != 1 {
				t.Errorf("IOErrors=%d, want 1", tree.stats.IOErrors)
			}
			if tree.failed {
				t.Fatalf("one transient error failed the tree: %v", tree.failCause)
			}
			if row.retried == nil {
				if tree.stats.IORetries != 0 || len(qp.pending) != 0 || !row.reaped(tree, false) {
					t.Fatalf("errored read-ahead must be dropped whole, never retried, its waiters woken: %+v", tree.stats)
				}
				unlatched(t, tree, "a dropped completion")
				return
			}
			if tree.stats.IORetries != 1 {
				t.Errorf("IORetries=%d, want 1", tree.stats.IORetries)
			}
			if !row.retried(tree, o, qp) {
				t.Fatal("transient error did not take the class's retry path")
			}
			if o != nil && o.ioRetries != 1 {
				t.Errorf("owner budget charged %d, want 1", o.ioRetries)
			}
		})

		t.Run(row.name+"/terminal error", func(t *testing.T) {
			tree, qp, o := setup(t)
			row.issue(tree, o)
			qp.complete(terminal)
			if tree.stats.IOErrors != 1 || tree.stats.IORetries != 0 {
				t.Errorf("IOErrors=%d IORetries=%d, want 1 and 0", tree.stats.IOErrors, tree.stats.IORetries)
			}
			unlatched(t, tree, "a terminal completion")
			if row.retried == nil {
				if tree.failed || !row.reaped(tree, false) {
					t.Fatalf("an advisory read failed the tree (%v) or was not dropped whole", tree.failed)
				}
				return
			}
			if !tree.failed || tree.failCause != terminal {
				t.Fatalf("failed=%v cause=%v, want the terminal status", tree.failed, tree.failCause)
			}
			if o != nil && (o.pendingErr != ErrDeviceFailed || !o.inReady) {
				t.Fatalf("owner: pendingErr=%v inReady=%v, want ErrDeviceFailed and ready to drain", o.pendingErr, o.inReady)
			}
			if tree.ioBlocked != 0 {
				t.Errorf("ioBlocked=%d", tree.ioBlocked)
			}
		})

		if row.retried == nil {
			continue
		}
		t.Run(row.name+"/budget exhausted", func(t *testing.T) {
			tree, qp, o := setup(t)
			row.issue(tree, o)
			for i := 0; !tree.failed; i++ {
				if i > tree.cfg.MaxIORetries {
					t.Fatalf("still healthy after %d transient errors on a budget of %d", i, tree.cfg.MaxIORetries)
				}
				if len(qp.pending) == 0 {
					// Play the main loop: let backoffs elapse and reissue.
					tree.env.(*tickEnv).now += sim.Time(time.Second)
					tree.promoteRetries()
					tree.drainBG()
					if o != nil {
						o.inReady = false
						row.issue(tree, o)
					}
				}
				qp.complete(nvme.ErrTimeout)
			}
			if tree.failCause != nvme.ErrTimeout || tree.stats.IORetries != uint64(tree.cfg.MaxIORetries) {
				t.Fatalf("cause=%v IORetries=%d, want the timeout after exactly %d retries",
					tree.failCause, tree.stats.IORetries, tree.cfg.MaxIORetries)
			}
		})
	}
}

// TestReadAheadBlocksSiblingWrite pins why a landed read-ahead is always
// the page's current image: while the run is in flight the tree holds a
// shared latch on each of its pages, so a writer's exclusive request for
// the page in the middle of the run queues and no write of it can be
// issued. Once the run is reaped the writer is granted and its write goes
// out.
func TestReadAheadBlocksSiblingWrite(t *testing.T) {
	tree, qp := seamTree(t, pipelinedCfg)
	issueReadAhead(tree)
	if len(qp.pending) != 1 || qp.pending[0].Blocks != raRun || tree.stats.ReadAheads != 1 {
		t.Fatalf("read-ahead run not issued: %d pending, %d read-aheads", len(qp.pending), tree.stats.ReadAheads)
	}
	mid := seamPage + 1
	w := NewInsert(250, []byte("v"), nil)
	tree.enroll(w, stWriteNext)
	w.writes = []writeReq{{id: mid, data: storage.NewLeaf(mid).Encode()}}
	if tree.acquireLatch(w, mid, latch.Exclusive) {
		t.Fatal("writer latched a page whose read-ahead is in flight")
	}
	if w.inReady || len(qp.pending) != 1 {
		t.Fatalf("latch-blocked writer: inReady=%v, %d commands pending", w.inReady, len(qp.pending))
	}

	qp.complete(nil)
	if !w.inReady || len(w.held) != 1 || !tree.resident(mid) || tree.readAheads.Len() != 0 {
		t.Fatalf("after the run was reaped: writer ready=%v latches=%d, image resident=%v, %d read-aheads left",
			w.inReady, len(w.held), tree.resident(mid), tree.readAheads.Len())
	}
	tree.process(w)
	if len(qp.pending) != 1 || qp.pending[0].Op != nvme.OpWrite || qp.pending[0].LBA != uint64(mid) {
		t.Fatalf("granted writer did not issue its page write: %d pending", len(qp.pending))
	}
	qp.complete(nil)
	tree.process(w)
	if w.state != stDone || tree.latches.ActiveNodes() != 0 {
		t.Fatalf("writer state %d, %d pages still latched", w.state, tree.latches.ActiveNodes())
	}
}

// TestFailedWakeOrderDeterministic fails the device while an op is parked
// on each page of a scan's read-ahead run, several times over on the same
// script, and compares the traces: enterFailed wakes the parked ops in
// page order, so a terminal failure replays like every other schedule.
func TestFailedWakeOrderDeterministic(t *testing.T) {
	run := func() ([]trace.Event, []storage.PageID) {
		cfg := pipelinedCfg
		cfg.Tracer = NewTracer(256)
		tree, _ := seamTree(t, cfg)
		issueReadAhead(tree)
		if tree.readAheads.Len() != raRun || tree.stats.ReadAheadHits != raRun {
			t.Fatalf("%d read-aheads with %d parked ops, want %d of each", tree.readAheads.Len(), tree.stats.ReadAheadHits, raRun)
		}
		tree.enterFailed(errors.New("device gone"))
		var woke []storage.PageID
		for e, ok := tree.ready.Pop(); ok; e, ok = tree.ready.Pop() {
			woke = append(woke, e.Op.(*Op).cur)
		}
		return cfg.Tracer.Events(), woke
	}
	first, woke := run()
	if want := []storage.PageID{seamPage, seamPage + 1, seamPage + 2}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("parked ops woke on pages %v, want %v", woke, want)
	}
	for i := 0; i < 10; i++ {
		if again, _ := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d traced %v, first run %v", i+2, again, first)
		}
	}
}

// TestReadAheadRuns pins how readAhead cuts the leaves a scan will walk
// into commands: one per run of consecutive page IDs, a page that is
// resident or refused its latch ends a run, and the selection stops at
// the scan's limit and end key. None of it counts as a buffer lookup: an
// op parked on the run counts its one miss, and the run hands it the page
// it waited for, filled as its demand read would have filled it.
func TestReadAheadRuns(t *testing.T) {
	type run struct {
		lba    uint64
		blocks int
	}
	adjacent := []storage.PageID{10, 11, 12, 13, 14}
	all := ^uint64(0)
	for _, c := range []struct {
		name     string
		children []storage.PageID
		scan     *Op
		setup    func(t *Tree)
		want     []run
	}{
		{"non-adjacent", []storage.PageID{10, 11, 20, 21, 22}, NewRange(0, all, 0, nil), nil, []run{{10, 2}, {20, 3}}},
		{"resident and refused", adjacent, NewRange(0, all, 0, nil), func(t *Tree) {
			t.fill(12, storage.NewLeaf(12).Encode(), false)
			t.latches.TryAcquire(13, latch.Exclusive) // a writer holds page 13
		}, []run{{10, 2}, {14, 1}}},
		{"limit 1", adjacent, NewRange(0, all, 1, nil), nil, []run{{10, 1}}},
		{"end key", adjacent, NewRange(0, 250, 0, nil), nil, []run{{10, 3}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tree, qp := seamTree(t, pipelinedCfg)
			if c.setup != nil {
				c.setup(tree)
			}
			parent := storage.NewInner(1, 1)
			parent.Children = c.children
			parent.Keys = []uint64{100, 200, 300, 400}
			tree.readAhead(c.scan, parent.Encode(), 0)
			var got []run
			for _, cmd := range qp.pending {
				got = append(got, run{cmd.LBA, cmd.Blocks})
			}
			if !reflect.DeepEqual(got, c.want) || tree.stats.ReadAheads != uint64(len(c.want)) {
				t.Fatalf("commands %v (%d read-aheads), want %v", got, tree.stats.ReadAheads, c.want)
			}
			// An op reaching the run's first page parks on it: the miss
			// that found the read in flight is its visit's one lookup.
			first := storage.PageID(c.want[0].lba)
			w := NewSearch(1, nil)
			tree.enroll(w, stReadNode)
			w.cur = first
			tree.process(w)
			for len(qp.pending) > 0 {
				qp.complete(nil)
			}
			if !w.inReady {
				t.Fatal("the run landed without waking the op parked on it")
			}
			tree.process(w)
			for _, ran := range c.want {
				for id := storage.PageID(ran.lba); id < storage.PageID(ran.lba)+storage.PageID(ran.blocks); id++ {
					if r, w := tree.latches.Held(id); !tree.resident(id) || r != 0 || w != 0 {
						t.Errorf("page %d after its run landed: resident=%v latch (r=%d, w=%d)", id, tree.resident(id), r, w)
					}
				}
			}
			// Residency checks and read-ahead fills are not lookups, and
			// the run hands the parked op the image instead of a second.
			if st := tree.BufferStats(); w.state != stDone || st.Hits != 0 || st.Misses != 1 {
				t.Errorf("read-ahead with one parked op: op state %d, %d hits, %d misses; want done, 0, 1", w.state, st.Hits, st.Misses)
			}
			// The page the op waited on is filled as a demand read fills
			// it, so its next lookup promotes it beyond a run of fills.
			tree.lookupPage(first)
			for id := storage.PageID(100); id < 100+storage.PageID(pipelinedCfg.BufferPages); id++ {
				tree.fill(id, storage.NewLeaf(id).Encode(), false)
			}
			if !tree.resident(first) {
				t.Errorf("page %d, read ahead for a parked op and looked up again, was not promoted", first)
			}
		})
	}
}

// TestReadAheadCorruptPage pins that the reaper checks every page of a
// run, not just the first: one page failing verification drops the whole
// run like any transient error, and its waiters read on demand.
func TestReadAheadCorruptPage(t *testing.T) {
	tree, qp := seamTree(t, pipelinedCfg)
	issueReadAhead(tree)
	c := qp.pending[0]
	qp.pending = nil
	fillLeaves(c)
	c.Buf[len(c.Buf)-1] ^= 0xFF // bit rot in the run's last page
	c.Callback(nvme.Completion{Cmd: c})
	if tree.stats.IOErrors != 1 || !raReaped(tree, false) || tree.latches.ActiveNodes() != 0 {
		t.Fatalf("a run with a corrupt page: IOErrors=%d, %d pages still latched; want it dropped whole",
			tree.stats.IOErrors, tree.latches.ActiveNodes())
	}
}

// TestJournalWriter pins the WAL writer at its one depth: a zero Config
// with the journal keeps walDepth commands of distinct blocks in flight; a
// rewrite of the tail block is superseded in place while merely queued and
// queues behind while the tail is in flight; a completion that overtakes
// an earlier write certifies nothing until that write lands; a transient
// error resubmits the same entry; the durability watermark wakes the ops
// it covers; and a terminal error wakes every parked op. Adjacent queued
// blocks go out as one command that certifies the last one's watermark,
// a block that does not follow starts a new command, a rewrite of a block
// inside an in-flight run queues behind the run, and a retry resubmits
// the whole run.
func TestJournalWriter(t *testing.T) {
	tree, qp := seamTree(t, Config{BufferPages: 8, Journal: true})
	blk := storage.PageID(tree.walStart)
	img := func(b byte) []byte { p := make([]byte, storage.PageSize); p[0] = b; return p }
	park := func(need int) *Op {
		o := NewInsert(1, nil, nil)
		tree.enroll(o, stJournal)
		o.jNeed, o.jParked = need, true
		tree.jWaiters = append(tree.jWaiters, o)
		return o
	}

	tree.jwEnqueue(blk, img(1), 100)
	tree.jwKick()
	tree.jwEnqueue(blk, img(2), 150) // tail in flight: queues behind
	tree.jwEnqueue(blk, img(3), 200) // tail merely queued: superseded in place
	tree.jwEnqueue(blk+1, img(4), 250)
	tree.jwKick()
	if len(tree.jwq) != 3 || tree.jwq[1].cmd.Buf[0] != 3 || tree.jwq[1].certify != 200 || len(qp.pending) != 2 || tree.jwInflight != 2 {
		t.Fatalf("queue=%d second=%d certify=%d pending=%d inflight=%d, want 3 entries, image 3 certifying 200, blocks 1 and 4 in flight",
			len(tree.jwq), tree.jwq[1].cmd.Buf[0], tree.jwq[1].certify, len(qp.pending), tree.jwInflight)
	}
	first, second, third := park(100), park(200), park(250)

	qp.completeAt(1, nil) // the next block lands first
	if tree.jDurable != 0 || first.inReady || third.inReady || len(tree.jwq) != 3 {
		t.Fatalf("out-of-order completion: jDurable=%d first=%v third=%v queue=%d, want nothing certified",
			tree.jDurable, first.inReady, third.inReady, len(tree.jwq))
	}
	qp.complete(nvme.ErrTimeout)
	if len(qp.pending) != 1 || qp.pending[0].Buf[0] != 1 || tree.jwq[0].cmd.tries != 1 || first.inReady {
		t.Fatalf("head retry: pending=%d image=%d retries=%d woke=%v, want the same entry back in flight",
			len(qp.pending), qp.pending[0].Buf[0], tree.jwq[0].cmd.tries, first.inReady)
	}
	qp.complete(nil)
	if tree.jDurable != 100 || !first.inReady || second.inReady {
		t.Fatalf("jDurable=%d first=%v second=%v, want 100 and only the first op woken", tree.jDurable, first.inReady, second.inReady)
	}
	if len(qp.pending) != 1 || qp.pending[0].Buf[0] != 3 || len(tree.jwq) != 2 {
		t.Fatalf("completion did not release the queued rewrite: pending=%d queue=%d", len(qp.pending), len(tree.jwq))
	}
	qp.complete(nil)
	if tree.jDurable != 250 || !second.inReady || !third.inReady || len(tree.jwq) != 0 {
		t.Fatalf("jDurable=%d second=%v third=%v queue=%d, want the landed prefix through 250 certified",
			tree.jDurable, second.inReady, third.inReady, len(tree.jwq))
	}

	base, before := blk+2, tree.stats
	for b := range 3 {
		tree.jwEnqueue(base+storage.PageID(b), img(byte(10+b)), 300+b)
	}
	tree.jwEnqueue(base+4, img(20), 304) // does not follow: a new command
	tree.jwKick()
	if len(qp.pending) != 2 || len(tree.jwq) != 2 || tree.jwInflight != 2 {
		t.Fatalf("pending=%d queue=%d inflight=%d, want a 3-block run and one block as 2 commands",
			len(qp.pending), len(tree.jwq), tree.jwInflight)
	}
	run := qp.pending[0]
	if run.LBA != uint64(base) || run.Blocks != 3 || len(run.Buf) != 3*storage.PageSize || tree.jwq[0].certify != 302 {
		t.Fatalf("run: LBA %d, %d blocks, %d bytes, certifies %d; want %d, 3, %d, 302",
			run.LBA, run.Blocks, len(run.Buf), tree.jwq[0].certify, base, 3*storage.PageSize)
	}
	for b := range 3 {
		if got := run.Buf[b*storage.PageSize]; got != byte(10+b) {
			t.Fatalf("run block %d carries image %d, want %d", b, got, 10+b)
		}
	}
	if p := qp.pending[1]; p.LBA != uint64(base+4) || p.Blocks != 1 {
		t.Fatalf("second command: LBA %d, %d blocks; want %d, 1", p.LBA, p.Blocks, base+4)
	}
	if cmds, blocks := tree.stats.JournalWriteCommands-before.JournalWriteCommands, tree.stats.JournalBlockWrites-before.JournalBlockWrites; cmds != 2 || blocks != 4 {
		t.Fatalf("counted %d commands and %d blocks, want 2 and 4", cmds, blocks)
	}
	tree.jwEnqueue(base+2, img(13), 305) // a rewrite of the run's last block
	tree.jwKick()
	if len(qp.pending) != 2 || len(tree.jwq) != 3 || tree.jwq[2].inflight {
		t.Fatalf("pending=%d queue=%d, want the rewrite queued behind the in-flight run", len(qp.pending), len(tree.jwq))
	}
	runWaiter, rewriteWaiter := park(302), park(305)
	qp.complete(nvme.ErrTimeout)
	if len(qp.pending) != 2 || qp.pending[1] != run || run.Blocks != 3 || run.Buf[2*storage.PageSize] != 12 ||
		tree.jwq[0].cmd.tries != 1 || tree.jwq[2].inflight {
		t.Fatalf("run retry: pending=%d blocks=%d tries=%d rewrite in flight=%v, want the whole run back in flight and the rewrite queued",
			len(qp.pending), run.Blocks, tree.jwq[0].cmd.tries, tree.jwq[2].inflight)
	}
	qp.completeAt(1, nil)
	if tree.jDurable != 302 || !runWaiter.inReady || rewriteWaiter.inReady {
		t.Fatalf("jDurable=%d, run waiter woken=%v, rewrite waiter woken=%v; want 302 and only the run's waiter", tree.jDurable, runWaiter.inReady, rewriteWaiter.inReady)
	}
	if len(qp.pending) != 2 || qp.pending[1].LBA != uint64(base+2) || qp.pending[1].Blocks != 1 || qp.pending[1].Buf[0] != 13 {
		t.Fatalf("pending=%d, want the rewrite released once the run landed", len(qp.pending))
	}
	qp.complete(nil)
	qp.complete(nil)
	if tree.jDurable != 305 || !rewriteWaiter.inReady || len(tree.jwq) != 0 {
		t.Fatalf("jDurable=%d rewrite waiter=%v queue=%d, want everything certified", tree.jDurable, rewriteWaiter.inReady, len(tree.jwq))
	}

	for b := range walDepth + 2 {
		tree.jwEnqueue(base+8+2*storage.PageID(b), img(byte(b)), 310+b)
	}
	tree.jwKick()
	if len(qp.pending) != walDepth || tree.jwInflight != walDepth {
		t.Fatalf("pending=%d inflight=%d, want %d commands of distinct blocks in flight", len(qp.pending), tree.jwInflight, walDepth)
	}
	fourth := park(400)
	qp.complete(errors.New("controller gone"))
	if !tree.failed || !fourth.inReady || len(tree.jWaiters) != 0 || len(tree.jwq) != 0 {
		t.Fatalf("failed=%v fourth=%v waiters=%d queue=%d, want every parked op woken",
			tree.failed, fourth.inReady, len(tree.jWaiters), len(tree.jwq))
	}
}
