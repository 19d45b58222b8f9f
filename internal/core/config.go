package core

import (
	"time"

	"github.com/patree/patree/internal/probe"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/trace"
)

// Persistence selects the buffering mode of §III-C. It selects behaviour
// only without the journal: with Config.Journal every tree acknowledges
// at log durability and writes its pages back (see Config.Journal).
type Persistence int

const (
	// StrongPersistence writes every node update straight to the NVM; the
	// read-only buffer serves reads and is filled only on I/O completion.
	// A completed update operation is durable.
	StrongPersistence Persistence = iota
	// WeakPersistence absorbs updates in a read-write buffer; dirty pages
	// reach the NVM on eviction or Sync(), merging repeated writes.
	WeakPersistence
)

// String names the mode.
func (p Persistence) String() string {
	if p == WeakPersistence {
		return "weak"
	}
	return "strong"
}

// Poller selects who probes the NVMe completion queue (§V-B, Figure 11).
type Poller int

const (
	// PollerInline is PA-Tree proper: the working thread probes, guided by
	// the scheduling policy.
	PollerInline Poller = iota
	// PollerDedicatedSpin is PAD-Tree: a dedicated thread probes in a
	// tight loop.
	PollerDedicatedSpin
	// PollerDedicatedModel is PAD+-Tree: a dedicated thread probes gated
	// by the workload-aware model.
	PollerDedicatedModel
)

// String names the poller mode.
func (p Poller) String() string {
	switch p {
	case PollerDedicatedSpin:
		return "PAD"
	case PollerDedicatedModel:
		return "PAD+"
	default:
		return "inline"
	}
}

// CostModel holds the virtual CPU cost constants charged by the working
// thread. They are calibrated so PA-Tree's per-operation CPU and its
// Figure 9 breakdown land in the paper's observed ranges (see DESIGN.md);
// the baselines share the same index-logic costs, so all CPU-efficiency
// comparisons are apples-to-apples.
type CostModel struct {
	// NodeVisit: decode a 512B page and binary-search it (real work).
	NodeVisit time.Duration
	// LeafMutate: apply an insert/update/delete and re-encode (real work).
	LeafMutate time.Duration
	// Split: split a node and fix separators (real work).
	Split time.Duration
	// LatchOp: acquire or release one operation latch (synchronization).
	LatchOp time.Duration
	// IOSubmit: append one command to the submission queue (NVMe).
	IOSubmit time.Duration
	// ProbeCall / ProbePerCQE: poll the completion queue (NVMe).
	ProbeCall   time.Duration
	ProbePerCQE time.Duration
	// SchedStep: one pass of the main loop's bookkeeping (scheduling).
	SchedStep time.Duration
	// ReadyPushPop: ready-queue operation (scheduling).
	ReadyPushPop time.Duration
	// IdleSpin: CPU burned per main-loop pass when there is nothing to do
	// and the policy does not yield (scheduling); this is the waste that
	// CPU yielding eliminates in Figure 13.
	IdleSpin time.Duration
	// CrossThreadHandoff: cache-coherence penalty per completion handed
	// between a dedicated poller thread and the working thread
	// (synchronization; Figure 11's PAD/PAD+ overhead).
	CrossThreadHandoff time.Duration
}

// DefaultCosts returns the calibrated cost constants.
func DefaultCosts() CostModel {
	return CostModel{
		NodeVisit:          700 * time.Nanosecond,
		LeafMutate:         900 * time.Nanosecond,
		Split:              1200 * time.Nanosecond,
		LatchOp:            40 * time.Nanosecond,
		IOSubmit:           250 * time.Nanosecond,
		ProbeCall:          300 * time.Nanosecond,
		ProbePerCQE:        60 * time.Nanosecond,
		SchedStep:          60 * time.Nanosecond,
		ReadyPushPop:       40 * time.Nanosecond,
		IdleSpin:           1 * time.Microsecond,
		CrossThreadHandoff: 150 * time.Nanosecond,
	}
}

// Config parameterizes a Tree.
type Config struct {
	// Persistence selects strong or weak buffering semantics when the
	// journal is off; with Journal on it has no effect.
	Persistence Persistence
	// BufferPages is the buffer capacity in 512B pages (0 disables
	// buffering, the §V-A configuration).
	BufferPages int
	// QueueDepth is the submission queue depth to allocate.
	QueueDepth int
	// InboxDepth bounds the admission ring (rounded up to a power of two;
	// default 4096). A full ring is backpressure: Admit blocks and
	// TryReserve returns ErrBacklog. In simulated environments the offered
	// concurrency must stay below this bound (see Tree.Admit).
	InboxDepth int
	// Policy is the probe/yield policy; nil selects the workload-aware
	// policy with the package-default trained model and 20µs yield
	// granularity.
	Policy sched.Policy
	// Prioritized enables the §IV-B prioritized ready queue
	// (write-latch holders first, then admission order); when false a
	// plain FIFO is used (the Figure 12 ablation).
	Prioritized bool
	// Poller selects inline (PA-Tree), dedicated spin (PAD-Tree) or
	// dedicated model-gated (PAD+-Tree) polling.
	Poller Poller
	// Costs are the virtual CPU constants; zero value selects defaults.
	Costs CostModel
	// MaxIORetries bounds how many times one operation's failed device
	// commands are retried before the tree declares the device failed
	// (ErrDeviceFailed). Transient statuses (media error, timeout,
	// checksum-failed read) are retried with exponential backoff; anything
	// else fails immediately. 0 selects the default (3); negative disables
	// retries entirely.
	MaxIORetries int
	// RetryBackoff is the delay before the first retry; it doubles on each
	// subsequent retry of the same operation. Zero selects the default
	// (50µs).
	RetryBackoff time.Duration
	// Journal enables the page-image redo journal: every update operation
	// appends the sealed images of its modified pages (plus the meta page
	// when the root moves; each logged as its used ends, without the hole
	// between them — record.go) to the device's WAL region before it is
	// acknowledged, so a crash can never lose an acknowledged write or
	// expose a torn multi-page update. The log is then the commit point
	// under both Persistence modes: an operation acknowledges once its redo
	// group is durable, and its pages stay dirty in the read-write buffer
	// until eviction write-back or a checkpoint writes them, never ahead of
	// their records (walHolds). The WAL writer keeps up to eight write
	// commands in flight, each a run of adjacent log blocks. Requires a
	// device formatted with a WAL region (Format always lays one out);
	// ignored when the meta page records no region. Off by default: the
	// paper's experiments measure the unjournaled write path.
	Journal bool
	// Tracer, when non-nil, receives lifecycle events (admission, queue
	// and latch waits, I/O slices, completions, probes, yields) from the
	// working thread. Build one with NewTracer so events carry the tree's
	// code and kind name tables. Tracing is pure observation: it never
	// charges CPU, so simulated schedules are identical with it on or off.
	Tracer *trace.Tracer
	// Pipelined turns on scan read-ahead (DESIGN.md §17): a range scan at
	// a level-1 parent reads its own leaf and up to four siblings, one
	// command per run of adjacent pages, under shared latches held until
	// the run is reaped; an op that reaches one of them parks on it
	// (pipeline.go). With BufferPages 0 nothing is read ahead. patree.Open
	// always sets it; off here, as the paper's experiments run the classic
	// loop and it reshapes the simulated I/O schedule.
	Pipelined bool
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2048
	}
	if c.InboxDepth <= 0 {
		c.InboxDepth = 4096
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
	if c.MaxIORetries == 0 {
		c.MaxIORetries = 3
	} else if c.MaxIORetries < 0 {
		c.MaxIORetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Microsecond
	}
	if c.Policy == nil {
		m, err := probe.Default()
		if err != nil {
			panic("core: default probe model training failed: " + err.Error())
		}
		c.Policy = sched.NewWorkload(m, nil, 20*time.Microsecond)
	}
	return c
}
