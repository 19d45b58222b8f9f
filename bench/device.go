package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/patree/patree/internal/nvme"
)

// devCounts is one reading of the wrapper's plain counters.
type devCounts struct {
	Reads, Writes, Flushes uint64
	ReadBytes, WriteBytes  uint64
	WALWriteBytes          uint64 // the part of WriteBytes that landed in the WAL LBA range
	Probes, EmptyProbes    uint64
	QueueFull, Errors      uint64
	DepthSum               uint64 // Σ commands outstanding on the pair at each submit
}

func (a devCounts) sub(b devCounts) devCounts {
	return devCounts{
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes, Flushes: a.Flushes - b.Flushes,
		ReadBytes: a.ReadBytes - b.ReadBytes, WriteBytes: a.WriteBytes - b.WriteBytes,
		WALWriteBytes: a.WALWriteBytes - b.WALWriteBytes,
		Probes:        a.Probes - b.Probes, EmptyProbes: a.EmptyProbes - b.EmptyProbes,
		QueueFull: a.QueueFull - b.QueueFull, Errors: a.Errors - b.Errors,
		DepthSum: a.DepthSum - b.DepthSum,
	}
}

func (c devCounts) cmds() uint64 { return c.Reads + c.Writes + c.Flushes }

// countDev wraps a device and observes every command that crosses the
// nvme.Device/QueuePair interface: the benchmark's view of the device
// layer from outside the engine. Counters are always on; call timings,
// command latencies and per-command spans are taken only while traced is
// set, so the untraced pass pays a command copy and a few uncontended
// atomic adds per command and nothing else: the forwarded copies are
// recycled (see inflight), not allocated.
type countDev struct {
	inner nvme.Device
	// clock stamps command latencies: wall time on the RAM device,
	// virtual time on the simulated one.
	clock func() int64

	reads, writes, flushes atomic.Uint64
	readBytes, writeBytes  atomic.Uint64
	walWriteBytes          atomic.Uint64
	probes, emptyProbes    atomic.Uint64
	queueFull, errs        atomic.Uint64
	depthSum               atomic.Uint64

	// written is the distinct-LBA bitmap behind space_amp. It has one
	// writer at a time (set-up code, then the engine's worker), so plain
	// load-or-store pairs on atomics suffice.
	written []atomic.Uint64

	walStart, walEnd atomic.Uint64 // WAL LBA range, from core.ReadMeta after set-up

	traced atomic.Bool
	tr     *tracer // nil unless the run is traced

	mu                sync.Mutex
	readLat, writeLat samples
	submitNs, probeNs int64
	submitN, probeN   int64
}

func newCountDev(inner nvme.Device, clock func() int64, tr *tracer) *countDev {
	return &countDev{
		inner:   inner,
		clock:   clock,
		tr:      tr,
		written: make([]atomic.Uint64, (inner.NumBlocks()+63)/64),
	}
}

func (d *countDev) counts() devCounts {
	return devCounts{
		Reads: d.reads.Load(), Writes: d.writes.Load(), Flushes: d.flushes.Load(),
		ReadBytes: d.readBytes.Load(), WriteBytes: d.writeBytes.Load(),
		WALWriteBytes: d.walWriteBytes.Load(),
		Probes:        d.probes.Load(), EmptyProbes: d.emptyProbes.Load(),
		QueueFull: d.queueFull.Load(), Errors: d.errs.Load(),
		DepthSum: d.depthSum.Load(),
	}
}

func (d *countDev) setWAL(start, blocks uint64) {
	d.walStart.Store(start)
	d.walEnd.Store(start + blocks)
}

func (d *countDev) markWritten(lba uint64, blocks int) {
	for i := uint64(0); i < uint64(blocks); i++ {
		b := lba + i
		w := &d.written[b/64]
		if old := w.Load(); old&(1<<(b%64)) == 0 {
			w.Store(old | 1<<(b%64))
		}
	}
}

// distinctWritten is the number of LBAs ever written, by commands or by
// direct image writes.
func (d *countDev) distinctWritten() uint64 {
	var n uint64
	for i := range d.written {
		w := d.written[i].Load()
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// tracedTimings drains what the traced pass collected since the last call.
type tracedTimings struct {
	readLat, writeLat samples
	submitNs, probeNs float64 // mean host time of one Submit / Probe call
}

func (d *countDev) drainTimings() tracedTimings {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := tracedTimings{readLat: d.readLat, writeLat: d.writeLat}
	if d.submitN > 0 {
		t.submitNs = float64(d.submitNs) / float64(d.submitN)
	}
	if d.probeN > 0 {
		t.probeNs = float64(d.probeNs) / float64(d.probeN)
	}
	d.readLat, d.writeLat = nil, nil
	d.submitNs, d.submitN, d.probeNs, d.probeN = 0, 0, 0, 0
	return t
}

// BlockSize implements nvme.Device.
func (d *countDev) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements nvme.Device.
func (d *countDev) NumBlocks() uint64 { return d.inner.NumBlocks() }

// Close implements nvme.Device.
func (d *countDev) Close() error { return d.inner.Close() }

// Advance, ReadAt and WriteAt forward the optional hooks of the inner
// device the way nvme.Partition does, so bulk loading and the engine's
// synchronous set-up I/O work through the wrapper.
func (d *countDev) Advance() {
	if a, ok := d.inner.(interface{ Advance() }); ok {
		a.Advance()
	}
}

func (d *countDev) ReadAt(lba uint64, buf []byte) {
	d.inner.(interface{ ReadAt(uint64, []byte) }).ReadAt(lba, buf)
}

func (d *countDev) WriteAt(lba uint64, buf []byte) {
	d.markWritten(lba, len(buf)/d.inner.BlockSize())
	d.inner.(interface{ WriteAt(uint64, []byte) }).WriteAt(lba, buf)
}

// AllocQueuePair implements nvme.Device.
func (d *countDev) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	inner, err := d.inner.AllocQueuePair(depth)
	if err != nil {
		return nil, err
	}
	return &countQP{d: d, inner: inner}, nil
}

// countQP observes one queue pair. Like every QueuePair it has a single
// owner thread, which also runs the completion callbacks (inside Probe),
// so out and free need no lock.
type countQP struct {
	d     *countDev
	inner nvme.QueuePair
	out   int
	free  []*inflight // forwarded commands not in flight, reused
}

// inflight is one forwarded command: the copy handed to the inner queue
// pair, and what its completion needs. The structs and their callbacks
// are recycled, so a command costs no allocation once the queue has been
// as deep as it gets.
type inflight struct {
	q      *countQP
	fwd    nvme.Command
	orig   *nvme.Command
	at     int64 // submit time on the device's clock
	traced bool
	span   uint64
}

func (q *countQP) take() *inflight {
	if n := len(q.free); n > 0 {
		f := q.free[n-1]
		q.free = q.free[:n-1]
		return f
	}
	f := &inflight{q: q}
	f.fwd.Callback = f.complete
	return f
}

// complete is the forwarded command's callback: it restores the caller's
// command in the completion, as nvme.Partition does. The inner device is
// done with fwd by now, so f is recycled before the caller's callback
// runs (which may submit again).
func (f *inflight) complete(c nvme.Completion) {
	q, d := f.q, f.q.d
	q.out--
	if c.Err != nil {
		d.errs.Add(1)
	}
	if f.traced {
		end := d.clock()
		d.mu.Lock()
		switch f.fwd.Op {
		case nvme.OpRead:
			d.readLat = append(d.readLat, end-f.at)
		case nvme.OpWrite:
			d.writeLat = append(d.writeLat, end-f.at)
		}
		d.mu.Unlock()
		d.tr.end(f.span, end)
	}
	orig := f.orig
	f.orig, f.fwd.Buf = nil, nil
	q.free = append(q.free, f)
	if orig.Callback != nil {
		c.Cmd = orig
		orig.Callback(c)
	}
}

// Submit implements nvme.QueuePair. The command is forwarded as a copy
// whose callback is inflight.complete.
func (q *countQP) Submit(cmd *nvme.Command) error {
	if cmd == nil {
		return q.inner.Submit(cmd)
	}
	d := q.d
	traced := d.traced.Load()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	f := q.take()
	cb := f.fwd.Callback
	f.fwd = *cmd
	f.fwd.Callback = cb
	f.orig, f.at, f.traced, f.span = cmd, d.clock(), traced, 0
	if traced {
		f.span = d.tr.begin(spanNames[cmd.Op], f.at)
	}
	if err := q.inner.Submit(&f.fwd); err != nil {
		if err == nvme.ErrQueueFull {
			d.queueFull.Add(1)
		}
		d.tr.end(f.span, d.clock())
		f.orig, f.fwd.Buf = nil, nil
		q.free = append(q.free, f)
		return err
	}
	d.depthSum.Add(uint64(q.out))
	q.out++
	n := uint64(cmd.Blocks * d.inner.BlockSize())
	switch cmd.Op {
	case nvme.OpRead:
		d.reads.Add(1)
		d.readBytes.Add(n)
	case nvme.OpWrite:
		d.writes.Add(1)
		d.writeBytes.Add(n)
		if cmd.LBA >= d.walStart.Load() && cmd.LBA < d.walEnd.Load() {
			d.walWriteBytes.Add(n)
		}
		d.markWritten(cmd.LBA, cmd.Blocks)
	case nvme.OpFlush:
		d.flushes.Add(1)
	}
	if traced {
		dt := time.Since(t0).Nanoseconds()
		d.mu.Lock()
		d.submitNs += dt
		d.submitN++
		d.mu.Unlock()
	}
	return nil
}

// Probe implements nvme.QueuePair. The traced call time includes the
// completion callbacks the probe runs.
func (q *countQP) Probe(max int) int {
	d := q.d
	traced := d.traced.Load()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	n := q.inner.Probe(max)
	d.probes.Add(1)
	if n == 0 {
		d.emptyProbes.Add(1)
	}
	if traced {
		dt := time.Since(t0).Nanoseconds()
		d.mu.Lock()
		d.probeNs += dt
		d.probeN++
		d.mu.Unlock()
	}
	return n
}

// Outstanding implements nvme.QueuePair.
func (q *countQP) Outstanding() int { return q.inner.Outstanding() }

// Free implements nvme.QueuePair.
func (q *countQP) Free() error { return q.inner.Free() }
