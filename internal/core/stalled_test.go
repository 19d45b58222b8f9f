package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/patree/patree/internal/fault"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

// chokedQP wraps the tree's queue pair and rejects every rejectEvery-th
// Submit with nvme.ErrQueueFull, so the stalled list and
// resubmitStalled are exercised deterministically — a genuinely tiny
// ring would stall too, but the stall and its resubmission both happen
// inside one simulation step, leaving nothing for the test to observe.
type chokedQP struct {
	nvme.QueuePair
	rejectEvery int
	submits     int
	rejected    int
}

func (q *chokedQP) Submit(cmd *nvme.Command) error {
	q.submits++
	if q.rejectEvery > 0 && q.submits%q.rejectEvery == 0 {
		q.rejected++
		return nvme.ErrQueueFull
	}
	return q.QueuePair.Submit(cmd)
}

// stormRig is a rig variant whose device is wrapped with fault
// injection and whose queue pair rejects submissions periodically, so
// full-queue stalls (the stalled list) and injected timeouts (the
// retry paths) storm the same submission paths at once.
type stormRig struct {
	t    *testing.T
	eng  *sim.Engine
	fdev *fault.Device
	qp   *chokedQP
	tree *Tree
}

func newStormRig(t *testing.T, cfg Config) *stormRig {
	t.Helper()
	r := &stormRig{t: t}
	r.eng = sim.NewEngine()
	osched := simos.New(r.eng, simos.Config{})
	inner := nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 11})
	meta, err := Format(inner)
	if err != nil {
		t.Fatal(err)
	}
	// Format runs on the raw device; faults are armed by the test only
	// after the loaded phase, so the storm hits a valid tree.
	r.fdev = fault.New(inner, fault.Config{Seed: 0x5707})
	th := osched.Spawn("patree", func(*simos.Thread) { r.tree.Run() })
	tree, err := New(r.fdev, cfg, SimEnv{T: th}, meta)
	if err != nil {
		t.Fatal(err)
	}
	// Interpose the rejecting wrapper before the worker runs; every 7th
	// submission bounces with ErrQueueFull.
	r.qp = &chokedQP{QueuePair: tree.qp, rejectEvery: 7}
	tree.qp = r.qp
	r.tree = tree
	t.Cleanup(func() {
		r.tree.Stop()
		r.eng.RunFor(time.Second)
	})
	return r
}

// drive admits ops together and steps the simulation until every op's
// Done fired and no command is left in flight (a scan's read-ahead can
// outlive the scan).
func (r *stormRig) drive(ops []*Op) {
	r.t.Helper()
	remaining := len(ops)
	for _, op := range ops {
		op.Done = func(*Op) { remaining-- }
	}
	r.eng.After(0, func() {
		for _, op := range ops {
			r.tree.Admit(op)
		}
	})
	// The worker busy-polls while ops are live, so a stranded op shows up
	// as an endless run, not an idle engine: bound the steps.
	for steps := 0; remaining > 0 && steps < 20_000_000 && r.eng.Step(); steps++ {
	}
	if remaining > 0 {
		r.t.Fatalf("%d operations never completed", remaining)
	}
	for steps := 0; r.tree.ioBlocked > 0 && steps < 20_000_000 && r.eng.Step(); steps++ {
	}
	if r.tree.ioBlocked > 0 {
		r.t.Fatalf("%d commands still in flight after every operation completed", r.tree.ioBlocked)
	}
}

// stormConfig is one configuration the storm tests run under. The
// pipelined one reads siblings ahead of its range scans into a small
// buffer, so read-aheads, their latches and the ops parked on them meet
// the same stalls and timeouts as demand traffic.
type stormConfig struct {
	name string
	cfg  Config
}

var stormConfigs = []stormConfig{
	{name: "classic", cfg: Config{BufferPages: 0}}, // no buffering: every access is a device command
	{name: "pipelined", cfg: Config{BufferPages: 2, Pipelined: true}},
}

// checkDrained pins what every storm must leave behind: no stalled entry,
// no read-ahead and no latch.
func (r *stormRig) checkDrained() {
	r.t.Helper()
	if len(r.tree.stalled) != 0 || r.tree.readAheads.Len() != 0 || r.tree.latches.ActiveNodes() != 0 {
		r.t.Fatalf("after the drain: %d stalled, %d read-aheads, %d latched pages",
			len(r.tree.stalled), r.tree.readAheads.Len(), r.tree.latches.ActiveNodes())
	}
}

// TestWeakSyncResumesFromFullQueue pins that an unjournaled Sync stalls
// and resumes like every other command class: its page snapshot is
// larger than the submission queue and point traffic competes for the
// slots, so its writes bounce while it has nothing of its own in flight
// to reschedule it.
func TestWeakSyncResumesFromFullQueue(t *testing.T) {
	r := newStormRig(t, Config{Persistence: WeakPersistence, BufferPages: 32, QueueDepth: 6})
	r.qp.rejectEvery = 0 // the six-slot ring is the choke
	var ops []*Op
	for i := uint64(1); i <= 600; i++ {
		ops = append(ops, NewInsert(i%400+1, []byte(fmt.Sprintf("value-%d", i)), nil))
		if i%40 == 0 {
			ops = append(ops, NewSync(nil))
		}
	}
	r.drive(ops)
	for _, op := range ops {
		if op.Res.Err != nil {
			t.Fatalf("%s failed: %v", op.kind, op.Res.Err)
		}
	}
	if len(r.tree.stalled) != 0 {
		t.Fatalf("%d entries left on the stalled list", len(r.tree.stalled))
	}
}

// TestWeakSyncWritesNewestImage pins that an unjournaled sync whose page
// writes wait out a full queue sends each page's newest image: its
// snapshot can be older than one an eviction has since written back, and
// written after it, the snapshot would bring back a leaf's pre-split image
// and cut its right link. A full scan must find every key.
func TestWeakSyncWritesNewestImage(t *testing.T) {
	r := newStormRig(t, Config{Persistence: WeakPersistence, BufferPages: 32, QueueDepth: 6})
	r.qp.rejectEvery = 0 // the six-slot ring is the choke
	for c := uint64(0); c < 3; c++ {
		var ops []*Op
		for i := 200*c + 1; i <= 200*c+200; i++ {
			ops = append(ops, NewInsert(i%400+1, []byte(fmt.Sprintf("value-%d", i)), nil))
			if i%40 == 0 {
				ops = append(ops, NewSync(nil))
			}
		}
		r.drive(ops)
		r.drive([]*Op{NewRange(100*c, 100*c+60, 0, nil)})
	}
	scan := NewRange(0, 1000, 0, nil)
	r.drive([]*Op{scan})
	if n := len(scan.Res.Pairs); n != 400 {
		t.Fatalf("full scan returned %d of 400 keys", n)
	}
}

// TestResubmitStalledTimeoutStorm drives a concurrent mixed batch
// while every 7th Submit bounces with ErrQueueFull and ~30% of the
// commands that do get in complete with nvme.ErrTimeout. Every
// submission path that can stall (reads and strong-persistence
// write-backs) must re-queue via the stalled list and eventually
// succeed: no operation may be lost, every scan must return every key
// in its range, every retry must be visible in the stats, and the
// storm must stay below the terminal failed state because the per-op
// budget is generous.
func TestResubmitStalledTimeoutStorm(t *testing.T) {
	for _, c := range stormConfigs {
		t.Run(c.name, func(t *testing.T) { timeoutStorm(t, c) })
	}
}

func timeoutStorm(t *testing.T, c stormConfig) {
	cfg := c.cfg
	cfg.MaxIORetries = 16
	cfg.RetryBackoff = 20 * time.Microsecond
	r := newStormRig(t, cfg)

	// Loaded phase, timeouts off (rejections stay on): build the tree.
	const n = 256
	load := make([]*Op, 0, n)
	for i := uint64(1); i <= n; i++ {
		load = append(load, NewInsert(i, []byte(fmt.Sprintf("v%d", i)), nil))
	}
	r.drive(load)
	if r.qp.rejected == 0 {
		t.Fatalf("%d concurrent inserts through the choked queue never stalled a submission", n)
	}

	// Storm phase: timeouts on ~30% of commands, mixed reads and writes.
	r.fdev.SetProbs(fault.Probs{Timeout: 0.3})
	mixed := make([]*Op, 0, n)
	for i := uint64(1); i <= n; i++ {
		switch {
		case i%4 == 0:
			mixed = append(mixed, NewInsert(i, []byte(fmt.Sprintf("w%d", i)), nil))
		case c.cfg.Pipelined && i%4 == 1:
			mixed = append(mixed, NewRange(i, i+60, 0, nil))
		default:
			mixed = append(mixed, NewSearch(i, nil))
		}
	}
	r.drive(mixed)

	for _, op := range mixed {
		if op.Res.Err != nil {
			t.Fatalf("op key %d failed under a transient storm: %v (cause %v, retries %d)", op.key, op.Res.Err, r.tree.failCause, op.ioRetries)
		}
		if op.kind == KindSearch && !op.Res.Found {
			t.Fatalf("search %d lost its key", op.key)
		}
		if op.kind == KindRange {
			checkStormScan(t, op)
		}
	}
	r.checkDrained()
	if c.cfg.Pipelined && r.tree.stats.ReadAheads == 0 {
		t.Fatal("the scans read nothing ahead")
	}
	if got := r.fdev.Counts().Timeouts; got == 0 {
		t.Fatal("fault injection armed but no timeouts fired")
	}
	st := r.tree.stats
	if st.IOErrors == 0 || st.IORetries == 0 {
		t.Fatalf("timeout storm left no trace: errors=%d retries=%d", st.IOErrors, st.IORetries)
	}
	if st.IORetries > st.IOErrors {
		t.Fatalf("more retries (%d) than errors (%d)", st.IORetries, st.IOErrors)
	}
	if r.tree.failed {
		t.Fatal("tree entered the failed state despite a generous retry budget")
	}
}

// checkStormScan checks a storm scan of [lo, lo+60] over keys 1..256:
// every key in range, in order, each with its loaded value or the
// storm's overwrite (a scan is unordered with respect to concurrent
// point writes).
func checkStormScan(t *testing.T, op *Op) {
	t.Helper()
	lo := op.endKey - 60
	if want := min(op.endKey, 256) - lo + 1; uint64(len(op.Res.Pairs)) != want {
		t.Fatalf("scan from %d returned %d pairs, want %d", lo, len(op.Res.Pairs), want)
	}
	for j, kv := range op.Res.Pairs {
		k := lo + uint64(j)
		if v := string(kv.Value); kv.Key != k || (v != fmt.Sprintf("v%d", k) && v != fmt.Sprintf("w%d", k)) {
			t.Fatalf("scan from %d: pair %d is key %d value %q", lo, j, kv.Key, kv.Value)
		}
	}
}

// TestResubmitStalledRetryBudgetBound pins the other edge: when every
// command times out, each operation consumes at most MaxIORetries
// retries before the tree declares the device failed, and every
// admitted operation still completes with ErrDeviceFailed — drained,
// not lost. No operation's pages are resident: the classic tree has no
// buffer, and the pipelined one reads keys far from the two pages its
// buffer holds.
func TestResubmitStalledRetryBudgetBound(t *testing.T) {
	for _, c := range stormConfigs {
		t.Run(c.name, func(t *testing.T) { retryBudgetBound(t, c) })
	}
}

func retryBudgetBound(t *testing.T, c stormConfig) {
	const budget = 2
	cfg := c.cfg
	cfg.MaxIORetries = budget
	cfg.RetryBackoff = 20 * time.Microsecond
	r := newStormRig(t, cfg)

	const n = 64
	keys := uint64(n)
	if c.cfg.Pipelined {
		keys = 4 * n // enough leaves for the scans to read siblings ahead
	}
	load := make([]*Op, 0, keys)
	for i := uint64(1); i <= keys; i++ {
		load = append(load, NewInsert(i, []byte("x"), nil))
	}
	r.drive(load)

	r.fdev.SetProbs(fault.Probs{Timeout: 1})
	reads := make([]*Op, 0, n)
	for i := uint64(1); i <= n; i++ {
		if c.cfg.Pipelined && i%2 == 1 {
			reads = append(reads, NewRange(i, i+60, 0, nil))
		} else {
			reads = append(reads, NewSearch(i, nil))
		}
	}
	r.drive(reads) // drive fails the test if any op is lost

	for _, op := range reads {
		if !errors.Is(op.Res.Err, ErrDeviceFailed) {
			t.Fatalf("%s %d: %v, want ErrDeviceFailed", op.kind, op.key, op.Res.Err)
		}
	}
	r.checkDrained()
	st := r.tree.stats
	if !r.tree.failed {
		t.Fatal("exhausted budgets must put the tree in the failed state")
	}
	if st.IORetries == 0 {
		t.Fatal("no retries before giving up")
	}
	if max := uint64(n * budget); st.IORetries > max {
		t.Fatalf("retries %d exceed the %d-op x %d budget bound", st.IORetries, n, budget)
	}
	if c.cfg.Pipelined && st.ReadAheads == 0 {
		t.Fatal("the scans read nothing ahead")
	}
	// The page a failing op was reading stays out of the buffers, so no
	// later read can be served from a half-retried image.
	if _, ok := r.tree.inflight.Get(storage.PageID(0)); ok {
		t.Fatal("meta page left in the in-flight write table")
	}
}
