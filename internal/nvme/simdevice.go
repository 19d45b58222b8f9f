package nvme

import (
	"time"

	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/sim"
)

// SimConfig parameterizes the simulated device. The defaults are
// calibrated so the device reproduces the behavioural shapes of the
// paper's Figure 3 for a ~400K read IOPS enterprise NVMe SSD of the
// i3.x2large class (see DESIGN.md §1).
type SimConfig struct {
	// BlockSize is the minimal access granularity (default 512 bytes,
	// matching the paper's device and the PA-Tree node size).
	BlockSize int
	// NumBlocks is the capacity in blocks (default 64M blocks = 32 GiB).
	NumBlocks uint64
	// Parallelism is the number of internal channels that serve commands
	// concurrently; queue depths beyond it only add queueing delay.
	// Default 32: with 75µs reads this saturates at ~427K read IOPS,
	// roughly 32x the QD1 rate — the "order of magnitude" of Fig 3a.
	Parallelism int
	// ReadService and WriteService are the per-command channel occupancy
	// times. Writes are slower (flash program time), which produces the
	// write-rate sensitivity of Fig 3a/3b. Defaults 75µs / 150µs.
	ReadService  time.Duration
	WriteService time.Duration
	// FlushService is the cost of a flush command. Default 100µs.
	FlushService time.Duration
	// ServiceJitter is the relative spread of service times (uniform in
	// [1-j, 1+j]); it makes completions genuinely out of order.
	// Default 0.25.
	ServiceJitter float64
	// SubmitOverhead is the controller occupancy per command intake.
	// Default 150ns.
	SubmitOverhead time.Duration
	// CompleteOverhead is the controller occupancy to post a completion
	// entry; a completion only becomes visible to Probe once posted.
	// Default 150ns.
	CompleteOverhead time.Duration
	// ProbeOverhead is the controller occupancy per Probe call — the
	// "interruption to the NVMe" of §II (doorbell reads and driver work
	// serialized with command intake). Because intake and completion
	// posting share the controller, frequent probing starves them and
	// collapses IOPS (Fig 3c, Table I). Default 3µs — calibrated so the
	// baselines' per-thread 100µs probe loops depress device throughput
	// the way the paper's Table I reports.
	ProbeOverhead time.Duration
	// PerCQEOverhead is the extra controller occupancy per reaped
	// completion. Default 50ns.
	PerCQEOverhead time.Duration
	// MaxQueuePairs and MaxQueueDepth bound AllocQueuePair (the paper's
	// SSD: 256 pairs of depth 2048).
	MaxQueuePairs int
	MaxQueueDepth int
	// Seed drives service-time jitter.
	Seed uint64
}

// WithDefaults fills zero fields with calibrated defaults.
func (c SimConfig) WithDefaults() SimConfig {
	if c.BlockSize <= 0 {
		c.BlockSize = 512
	}
	if c.NumBlocks == 0 {
		c.NumBlocks = 64 << 20
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 32
	}
	if c.ReadService <= 0 {
		c.ReadService = 75 * time.Microsecond
	}
	if c.WriteService <= 0 {
		c.WriteService = 150 * time.Microsecond
	}
	if c.FlushService <= 0 {
		c.FlushService = 100 * time.Microsecond
	}
	if c.ServiceJitter == 0 {
		c.ServiceJitter = 0.25
	}
	if c.SubmitOverhead <= 0 {
		c.SubmitOverhead = 150 * time.Nanosecond
	}
	if c.CompleteOverhead <= 0 {
		c.CompleteOverhead = 150 * time.Nanosecond
	}
	if c.ProbeOverhead <= 0 {
		c.ProbeOverhead = 3 * time.Microsecond
	}
	if c.PerCQEOverhead <= 0 {
		c.PerCQEOverhead = 50 * time.Nanosecond
	}
	if c.MaxQueuePairs <= 0 {
		c.MaxQueuePairs = 256
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 2048
	}
	return c
}

// Stats are cumulative device-side measurements.
type Stats struct {
	CompletedReads   uint64
	CompletedWrites  uint64
	CompletedFlushes uint64
	Probes           uint64
	// ReadLatency/WriteLatency are device-side completion latencies
	// (submission to completion-queue entry).
	ReadLatency  *metrics.Histogram
	WriteLatency *metrics.Histogram
	// AvgOutstanding is the time-weighted average number of outstanding
	// commands.
	AvgOutstanding float64
	MaxOutstanding int64
}

// inflight tracks one command inside the device.
type inflight struct {
	cmd       *Command
	qp        *simQP
	submitted sim.Time
	err       error
}

// SimDevice is the virtual-clock device model. All methods must be called
// from simulation context (DES events or simulated thread bodies); the
// model is single-threaded by construction.
type SimDevice struct {
	eng *sim.Engine
	cfg SimConfig
	rng *sim.RNG

	store  blockStore
	qps    []*simQP
	nextQP int

	// Controller serialization point: next instant the controller is free.
	ctrlFree sim.Time

	// Channel pool.
	busyUnits int
	pending   []*inflight // intaken commands waiting for a free channel

	outstanding metrics.Gauge // submitted but not yet reaped
	inDevice    int           // intaken but not yet completed
	unposted    int           // submitted but completion not yet posted

	stats struct {
		reads, writes, flushes metrics.Counter
		probes                 metrics.Counter
		readLat, writeLat      *metrics.Histogram
	}
	closed bool
}

// NewSimDevice creates a simulated device on eng.
func NewSimDevice(eng *sim.Engine, cfg SimConfig) *SimDevice {
	cfg = cfg.WithDefaults()
	d := &SimDevice{
		eng:   eng,
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed ^ 0x5dee7a11),
		store: blockStore{bs: cfg.BlockSize},
	}
	d.stats.readLat = metrics.NewHistogram()
	d.stats.writeLat = metrics.NewHistogram()
	return d
}

// Config returns the effective configuration.
func (d *SimDevice) Config() SimConfig { return d.cfg }

// BlockSize implements Device.
func (d *SimDevice) BlockSize() int { return d.cfg.BlockSize }

// NumBlocks implements Device.
func (d *SimDevice) NumBlocks() uint64 { return d.cfg.NumBlocks }

// Close implements Device.
func (d *SimDevice) Close() error {
	d.closed = true
	return nil
}

// Outstanding returns the current number of submitted-but-unreaped
// commands across all queue pairs.
func (d *SimDevice) Outstanding() int { return int(d.outstanding.Level()) }

// Stats returns a snapshot of cumulative statistics.
func (d *SimDevice) Stats() Stats {
	now := int64(d.eng.Now())
	rl, wl := metrics.NewHistogram(), metrics.NewHistogram()
	rl.Merge(d.stats.readLat)
	wl.Merge(d.stats.writeLat)
	return Stats{
		CompletedReads:   d.stats.reads.Value(),
		CompletedWrites:  d.stats.writes.Value(),
		CompletedFlushes: d.stats.flushes.Value(),
		Probes:           d.stats.probes.Value(),
		ReadLatency:      rl,
		WriteLatency:     wl,
		AvgOutstanding:   d.outstanding.Avg(now),
		MaxOutstanding:   d.outstanding.Max(),
	}
}

// ResetStats clears cumulative statistics (the outstanding gauge restarts
// its time-weighted average from now).
func (d *SimDevice) ResetStats() {
	d.stats.reads.Reset()
	d.stats.writes.Reset()
	d.stats.flushes.Reset()
	d.stats.probes.Reset()
	d.stats.readLat.Reset()
	d.stats.writeLat.Reset()
	lvl := d.outstanding.Level()
	d.outstanding = metrics.Gauge{}
	d.outstanding.Set(int64(d.eng.Now()), lvl)
}

// ReadAt copies blocks from lba into buf, bypassing queues and timing, for
// recovery and verification code; unwritten blocks read as zeros.
func (d *SimDevice) ReadAt(lba uint64, buf []byte) { d.store.read(lba, buf) }

// WriteAt stores buf at lba, bypassing queues and timing, for bulk loaders;
// a buf that ends mid-block zero-fills the rest of that block.
func (d *SimDevice) WriteAt(lba uint64, buf []byte) { d.store.write(lba, buf) }

// ImageSnapshot deep-copies the device's written blocks, keyed by LBA.
// Combined with LoadImage on a fresh device it lets crash-recovery tests
// freeze a device mid-run and reopen the surviving bytes under a new
// engine.
func (d *SimDevice) ImageSnapshot() map[uint64][]byte { return d.store.snapshot() }

// LoadImage replaces the device's block image with a deep copy of img.
func (d *SimDevice) LoadImage(img map[uint64][]byte) { d.store.load(img) }

// Advance steps the simulation engine until every submitted command has
// posted its completion. Intended for setup and recovery code (Format,
// Open, bulk loading) that runs before the simulated workload starts;
// it executes whatever engine events are pending, so do not call it while
// simulated threads are live.
func (d *SimDevice) Advance() {
	for d.unposted > 0 && d.eng.Step() {
	}
}

// AllocQueuePair implements Device.
func (d *SimDevice) AllocQueuePair(depth int) (QueuePair, error) {
	if d.closed {
		return nil, ErrClosed
	}
	if d.nextQP >= d.cfg.MaxQueuePairs {
		return nil, ErrTooManyQP
	}
	if depth <= 0 || depth > d.cfg.MaxQueueDepth {
		depth = d.cfg.MaxQueueDepth
	}
	d.nextQP++
	qp := &simQP{dev: d, id: d.nextQP, depth: depth}
	d.qps = append(d.qps, qp)
	return qp, nil
}

// occupyController reserves dur of controller time starting no earlier
// than now, returning when the reservation ends.
func (d *SimDevice) occupyController(dur time.Duration) sim.Time {
	now := d.eng.Now()
	start := d.ctrlFree
	if start < now {
		start = now
	}
	d.ctrlFree = start.Add(dur)
	return d.ctrlFree
}

// serviceTime draws the channel occupancy for cmd.
func (d *SimDevice) serviceTime(op Opcode) time.Duration {
	var base time.Duration
	switch op {
	case OpRead:
		base = d.cfg.ReadService
	case OpWrite:
		base = d.cfg.WriteService
	default:
		base = d.cfg.FlushService
	}
	j := d.cfg.ServiceJitter
	f := 1 - j + 2*j*d.rng.Float64()
	return time.Duration(float64(base) * f)
}

// intake is called when the controller finishes accepting a command.
func (d *SimDevice) intake(inf *inflight) {
	d.inDevice++
	d.pending = append(d.pending, inf)
	d.tryDispatch()
}

// tryDispatch starts pending commands on free channels.
func (d *SimDevice) tryDispatch() {
	for d.busyUnits < d.cfg.Parallelism && len(d.pending) > 0 {
		inf := d.pending[0]
		d.pending = d.pending[1:]
		d.busyUnits++
		svc := d.serviceTime(inf.cmd.Op)
		d.eng.After(svc, func() { d.complete(inf) })
	}
}

// complete finishes channel-side processing: performs the data transfer,
// frees the channel, and hands the completion to the controller for
// posting. The CQ entry becomes visible to Probe only once the controller
// has posted it, so controller pressure (e.g. from over-frequent probing)
// delays completion visibility and, transitively, throughput.
func (d *SimDevice) complete(inf *inflight) {
	d.busyUnits--
	cmd := inf.cmd
	// A write was stored at submit, and the model's store is already
	// durable, so only a read moves data here.
	if inf.err == nil && cmd.Op == OpRead {
		d.store.read(cmd.LBA, cmd.Buf[:cmd.Blocks*d.cfg.BlockSize])
	}
	postAt := d.occupyController(d.cfg.CompleteOverhead)
	d.eng.At(postAt, func() { d.post(inf) })
	d.tryDispatch()
}

// post places the completion entry on the owning queue pair's CQ.
func (d *SimDevice) post(inf *inflight) {
	d.inDevice--
	d.unposted--
	cmd := inf.cmd
	now := d.eng.Now()
	lat := now.Sub(inf.submitted)
	switch cmd.Op {
	case OpRead:
		d.stats.reads.Inc()
		d.stats.readLat.Record(lat)
	case OpWrite:
		d.stats.writes.Inc()
		d.stats.writeLat.Record(lat)
	default:
		d.stats.flushes.Inc()
	}
	inf.qp.cq = append(inf.qp.cq, Completion{Cmd: cmd, Err: inf.err, Latency: lat})
}

// simQP is a queue pair on a SimDevice.
type simQP struct {
	dev   *SimDevice
	id    int
	depth int
	inSQ  int // commands submitted and not yet reaped (ring occupancy)
	cq    []Completion
	freed bool
}

// Submit implements QueuePair. The write payload is snapshotted
// immediately, so callers may reuse Buf after Submit returns.
func (q *simQP) Submit(cmd *Command) error {
	if cmd == nil {
		return ErrBadCommand
	}
	if q.freed {
		return ErrQueueFreed
	}
	if q.dev.closed {
		return ErrClosed
	}
	if q.inSQ >= q.depth {
		return ErrQueueFull
	}
	inf := &inflight{cmd: cmd, qp: q, submitted: q.dev.eng.Now()}
	if err := validate(q.dev, cmd); err != nil {
		// Invalid commands still complete (with an error status), like a
		// real controller posting an error CQE.
		inf.err = err
	} else if cmd.Op == OpWrite {
		q.dev.store.write(cmd.LBA, cmd.Buf[:cmd.Blocks*q.dev.cfg.BlockSize])
	}
	q.inSQ++
	q.dev.unposted++
	q.dev.outstanding.Add(int64(q.dev.eng.Now()), 1)
	readyAt := q.dev.occupyController(q.dev.cfg.SubmitOverhead)
	q.dev.eng.At(readyAt, func() { q.dev.intake(inf) })
	return nil
}

// Probe implements QueuePair: reaps up to max completions, invoking
// callbacks, and charges the controller the probe interference cost.
func (q *simQP) Probe(max int) int {
	if q.freed || q.dev.closed {
		return 0
	}
	d := q.dev
	d.stats.probes.Inc()
	n := len(q.cq)
	if max > 0 && n > max {
		n = max
	}
	d.occupyController(d.cfg.ProbeOverhead + time.Duration(n)*d.cfg.PerCQEOverhead)
	if n == 0 {
		return 0
	}
	batch := make([]Completion, n)
	copy(batch, q.cq)
	q.cq = q.cq[n:]
	q.inSQ -= n
	d.outstanding.Add(int64(d.eng.Now()), -int64(n))
	for _, c := range batch {
		if c.Cmd.Callback != nil {
			c.Cmd.Callback(c)
		}
	}
	return n
}

// Outstanding implements QueuePair.
func (q *simQP) Outstanding() int { return q.inSQ }

// Free implements QueuePair.
func (q *simQP) Free() error {
	q.freed = true
	return nil
}
