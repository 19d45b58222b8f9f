package nvme

import (
	"time"

	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/sim"
)

// The simulated device's calibrated constants. Together they reproduce
// the behavioural shapes of the paper's Figure 3 for a ~400K read IOPS
// enterprise NVMe SSD of the i3.x2large class (DESIGN.md §1, §8); they
// are fixed so that every figure describes one stated device.
const (
	// blockSize is the minimal access granularity on both devices,
	// matching the paper's device and the PA-Tree node size.
	blockSize = 512
	// readService and writeService are the per-command channel occupancy
	// times. Writes are slower (flash program time), which produces the
	// write-rate sensitivity of Fig 3a/3b.
	readService  = 75 * time.Microsecond
	writeService = 150 * time.Microsecond
	// flushService is the cost of a flush command.
	flushService = 100 * time.Microsecond
	// serviceJitter is the relative spread of service times (uniform in
	// [1-j, 1+j]); it makes completions genuinely out of order.
	serviceJitter = 0.25
	// submitOverhead is the controller occupancy per command intake.
	submitOverhead = 150 * time.Nanosecond
	// completeOverhead is the controller occupancy to post a completion
	// entry; a completion only becomes visible to Probe once posted.
	completeOverhead = 150 * time.Nanosecond
	// probeOverhead is the controller occupancy per Probe call — the
	// "interruption to the NVMe" of §II (doorbell reads and driver work
	// serialized with command intake). Because intake and completion
	// posting share the controller, frequent probing starves them and
	// collapses IOPS (Fig 3c, Table I). It is calibrated so the
	// baselines' per-thread 100µs probe loops depress device throughput
	// the way the paper's Table I reports.
	probeOverhead = 3 * time.Microsecond
	// perCQEOverhead is the extra controller occupancy per reaped
	// completion.
	perCQEOverhead = 50 * time.Nanosecond
	// maxQueuePairs and maxQueueDepth bound AllocQueuePair (the paper's
	// SSD: 256 pairs of depth 2048): always on RAMDevice, by default on
	// SimDevice.
	maxQueuePairs = 256
	maxQueueDepth = 2048
)

// SimConfig sizes the simulated device; its timing is the calibrated
// constants above.
type SimConfig struct {
	// NumBlocks is the capacity in blocks (default 64M blocks = 32 GiB).
	NumBlocks uint64
	// Parallelism is the number of internal channels that serve commands
	// concurrently; queue depths beyond it only add queueing delay.
	// Default 32: with 75µs reads this saturates at ~427K read IOPS,
	// roughly 32x the QD1 rate — the "order of magnitude" of Fig 3a.
	Parallelism int
	// MaxQueuePairs and MaxQueueDepth bound AllocQueuePair (defaults 256
	// and 2048, the paper's SSD).
	MaxQueuePairs int
	MaxQueueDepth int
	// Seed drives service-time jitter.
	Seed uint64
}

func (c SimConfig) withDefaults() SimConfig {
	if c.NumBlocks == 0 {
		c.NumBlocks = 64 << 20
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 32
	}
	if c.MaxQueuePairs <= 0 {
		c.MaxQueuePairs = maxQueuePairs
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = maxQueueDepth
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
	cfg = cfg.withDefaults()
	d := &SimDevice{
		eng: eng,
		cfg: cfg,
		rng: sim.NewRNG(cfg.Seed ^ 0x5dee7a11),
	}
	d.stats.readLat = metrics.NewHistogram()
	d.stats.writeLat = metrics.NewHistogram()
	return d
}

// BlockSize implements Device.
func (d *SimDevice) BlockSize() int { return blockSize }

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
	base := flushService
	switch op {
	case OpRead:
		base = readService
	case OpWrite:
		base = writeService
	}
	f := 1 - serviceJitter + 2*serviceJitter*d.rng.Float64()
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
		d.store.read(cmd.LBA, cmd.Buf[:cmd.Blocks*blockSize])
	}
	postAt := d.occupyController(completeOverhead)
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
	dev     *SimDevice
	id      int
	depth   int
	inSQ    int // commands submitted and not yet reaped (ring occupancy)
	cq      []Completion
	scratch []Completion // Probe's reaped batch, reused across calls
	freed   bool
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
		q.dev.store.write(cmd.LBA, cmd.Buf[:cmd.Blocks*blockSize])
	}
	q.inSQ++
	q.dev.unposted++
	q.dev.outstanding.Add(int64(q.dev.eng.Now()), 1)
	readyAt := q.dev.occupyController(submitOverhead)
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
	d.occupyController(probeOverhead + time.Duration(n)*perCQEOverhead)
	if n == 0 {
		return 0
	}
	// The reaped entries move to the pair's scratch slice, detached while
	// the callbacks run so that a nested Probe reaps into its own.
	batch := append(q.scratch[:0], q.cq[:n]...)
	q.scratch = nil
	q.cq = append(q.cq[:0], q.cq[n:]...)
	q.inSQ -= n
	d.outstanding.Add(int64(d.eng.Now()), -int64(n))
	for _, c := range batch {
		if c.Cmd.Callback != nil {
			c.Cmd.Callback(c)
		}
	}
	q.scratch = batch
	return n
}

// Outstanding implements QueuePair.
func (q *simQP) Outstanding() int { return q.inSQ }

// Free implements QueuePair.
func (q *simQP) Free() error {
	q.freed = true
	return nil
}
