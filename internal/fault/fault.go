// Package fault wraps an nvme.Device with deterministic fault injection
// for crash-recovery and robustness testing. Keyed by a seeded RNG and
// per-class probabilities, the wrapper injects command failures (media
// error, timeout), read bit-rot, torn multi-block writes and latency
// spikes — all decided at submission time in submission order, so a
// given seed and workload replays the exact same fault schedule.
//
// Crash() freezes the device mid-flight: every write whose completion
// was not yet delivered is resolved to fully-applied, torn, or reverted
// (RNG-chosen), all undelivered completions become ErrCrashed, and the
// surviving bytes can be snapshotted and reopened as a fresh device —
// the shape of a power loss under load.
package fault

import (
	"errors"
	"sync"
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
)

// ErrCrashed is the status of every command completion after Crash().
// It is deliberately not one of the nvme transient statuses: a robust
// caller must treat it as a dead device, not retry it.
var ErrCrashed = errors.New("fault: device crashed")

// Probs are per-command injection probabilities in [0, 1], drawn
// independently per submitted command.
type Probs struct {
	// ReadErr / WriteErr complete the command with nvme.ErrMedia without
	// executing it (a failed write changes nothing on the device).
	ReadErr  float64
	WriteErr float64
	// Timeout completes any command with nvme.ErrTimeout without
	// executing it.
	Timeout float64
	// BitRot flips one random bit of a read's returned buffer while
	// reporting success — the fault checksums exist to catch.
	BitRot float64
	// TornWrite applies a block-aligned prefix of a multi-block write
	// (the remaining blocks keep their previous content) and completes
	// with nvme.ErrMedia. Single-block writes are atomic and never torn.
	// Requires the wrapped device to support direct image access.
	TornWrite float64
	// LatencySpike delays the command's completion delivery by
	// Config.SpikeDelay.
	LatencySpike float64
}

// Imager is the direct image access torn writes and crash resolution
// need; *nvme.SimDevice implements it. Wrapping a device without it
// (e.g. *nvme.RAMDevice) disables TornWrite and Crash but keeps every
// other fault class.
type Imager interface {
	ReadAt(lba uint64, buf []byte)
	WriteAt(lba uint64, buf []byte)
}

// Config parameterizes the wrapper.
type Config struct {
	// Seed keys the injection RNG; identical seed + workload =>
	// identical fault schedule.
	Seed uint64
	// Probs are the per-class probabilities.
	Probs Probs
	// SpikeDelay is the extra completion delay of a LatencySpike fault
	// (default 2ms of the supplied clock).
	SpikeDelay time.Duration
	// Now supplies the virtual clock used for spike due-times. When nil,
	// spiked completions are simply deferred to the probe after next.
	Now func() sim.Time
}

// Counts reports how many faults of each class were injected.
type Counts struct {
	ReadErrs   uint64
	WriteErrs  uint64
	Timeouts   uint64
	BitRots    uint64
	TornWrites uint64
	Spikes     uint64
	// CrashTorn / CrashReverted / CrashKept classify how Crash resolved
	// the writes that were in flight at the crash instant.
	CrashTorn     uint64
	CrashReverted uint64
	CrashKept     uint64
}

// flight is one passthrough command whose completion has not been
// delivered to the caller yet. Writes carry byte snapshots of the old
// and new content so Crash can resolve them either way.
type flight struct {
	qp  *faultQP
	cmd *nvme.Command
	// cb is the caller's original callback: cmd.Callback is replaced by
	// the tracking wrapper at submit, so crash delivery must not use it.
	cb    func(nvme.Completion)
	pre   []byte // previous content (writes with an Imager)
	post  []byte // submitted content (writes with an Imager)
	start uint64 // first byte offset = LBA * blockSize
}

// Device wraps an nvme.Device with fault injection.
type Device struct {
	inner nvme.Device
	img   Imager // nil when inner has no direct image access

	// mu guards every mutable field below plus each queue pair's synth
	// buffer. In the deterministic simulation all calls arrive from one
	// cooperative thread and the lock is uncontended; over a real-time
	// device it makes Crash/Counts safe to call from another goroutine
	// while the working thread submits and probes. User callbacks and
	// inner Probe/Submit calls that can re-enter the wrapper are never
	// made while holding it.
	mu      sync.Mutex
	cfg     Config
	rng     *sim.RNG
	enabled bool
	crashed bool
	counts  Counts
	flights []*flight // undelivered passthrough commands, submit order
}

// New wraps inner. Injection starts enabled.
func New(inner nvme.Device, cfg Config) *Device {
	if cfg.SpikeDelay <= 0 {
		cfg.SpikeDelay = 2 * time.Millisecond
	}
	d := &Device{
		inner:   inner,
		cfg:     cfg,
		rng:     sim.NewRNG(cfg.Seed ^ 0xfa17dead),
		enabled: true,
	}
	if img, ok := inner.(Imager); ok {
		d.img = img
	}
	return d
}

// SetEnabled toggles fault injection (crash tracking continues either
// way). Disable it while loading fixtures, enable it for the measured
// phase.
func (d *Device) SetEnabled(on bool) {
	d.mu.Lock()
	d.enabled = on
	d.mu.Unlock()
}

// SetProbs swaps the injection probabilities, e.g. to run a clean setup
// phase before arming the fault classes under test. The RNG stream is
// unaffected, so a fixed seed and workload stay reproducible.
func (d *Device) SetProbs(p Probs) {
	d.mu.Lock()
	d.cfg.Probs = p
	d.mu.Unlock()
}

// Counts returns a snapshot of the injection counters.
func (d *Device) Counts() Counts {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counts
}

// BlockSize implements nvme.Device.
func (d *Device) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements nvme.Device.
func (d *Device) NumBlocks() uint64 { return d.inner.NumBlocks() }

// Close implements nvme.Device.
func (d *Device) Close() error { return d.inner.Close() }

// Advance forwards the simulation hook of a SimDevice-backed inner
// device, so wrappers layered above (an nvme.Partition per shard) can
// still drive setup and recovery I/O deterministically. No-op on
// real-time inners.
func (d *Device) Advance() {
	if a, ok := d.inner.(interface{ Advance() }); ok {
		a.Advance()
	}
}

// AllocQueuePair implements nvme.Device.
func (d *Device) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	qp, err := d.inner.AllocQueuePair(depth)
	if err != nil {
		return nil, err
	}
	return &faultQP{d: d, inner: qp}, nil
}

// Crash freezes the device at this instant, as a power loss would:
// every write still in flight is resolved — kept in full, torn at a
// random block boundary, or reverted entirely — and every undelivered
// completion (in-flight, spiked, or synthesized) is replaced by an
// ErrCrashed completion. Subsequent submissions also complete with
// ErrCrashed. Requires an Imager-capable inner device.
//
// Tears happen only between the blocks of a multi-block command: a
// single-block write either lands in full or not at all, matching the
// per-LBA atomic-write guarantee NVMe devices provide (and that the
// tree's WAL tail-rewrite protocol depends on). Because overlapping
// in-flight writes to the same LBA are resolved in submission order,
// every outcome — including "kept" — rewrites the media explicitly.
func (d *Device) Crash() error {
	if d.img == nil {
		return errors.New("fault: inner device does not expose its image; cannot crash")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil
	}
	d.crashed = true
	bs := uint64(d.inner.BlockSize())
	for _, fl := range d.flights {
		if fl.cmd.Op == nvme.OpWrite && fl.pre != nil {
			outcome := d.rng.Intn(3)
			if outcome == 2 && fl.cmd.Blocks < 2 {
				outcome = 1 // single-block writes are atomic: never torn
			}
			switch outcome {
			case 0: // fully applied
				d.img.WriteAt(fl.start/bs, fl.post)
				d.counts.CrashKept++
			case 1: // reverted: the write never reached the media
				d.img.WriteAt(fl.start/bs, fl.pre)
				d.counts.CrashReverted++
			default: // torn: a block-aligned prefix of the new bytes landed
				cut := int(bs) * (1 + d.rng.Intn(fl.cmd.Blocks-1))
				mix := make([]byte, len(fl.post))
				copy(mix, fl.post[:cut])
				copy(mix[cut:], fl.pre[cut:])
				d.img.WriteAt(fl.start/bs, mix)
				d.counts.CrashTorn++
			}
		}
		// The caller never hears a good completion for anything that was
		// in flight, regardless of how the bytes were resolved.
		fl.qp.enqueue(synthCQE{cb: fl.cb, c: nvme.Completion{Cmd: fl.cmd, Err: ErrCrashed}})
	}
	d.flights = d.flights[:0]
	return nil
}

// Snapshot returns a deep copy of the surviving device image (after a
// crash, the bytes a reopened device would see). Supported only for
// inner devices exposing ImageSnapshot.
func (d *Device) Snapshot() (map[uint64][]byte, error) {
	type snapper interface{ ImageSnapshot() map[uint64][]byte }
	s, ok := d.inner.(snapper)
	if !ok {
		return nil, errors.New("fault: inner device does not support snapshots")
	}
	return s.ImageSnapshot(), nil
}

func (d *Device) track(fl *flight) { d.flights = append(d.flights, fl) }

func (d *Device) untrack(fl *flight) {
	for i, f := range d.flights {
		if f == fl {
			d.flights = append(d.flights[:i], d.flights[i+1:]...)
			return
		}
	}
}

// synthCQE is a completion the wrapper delivers itself: a synthesized
// failure, a spiked (delayed) real completion, or a post-crash error.
type synthCQE struct {
	cb     func(nvme.Completion)
	c      nvme.Completion
	due    sim.Time
	hasDue bool
}

// faultQP wraps one queue pair.
type faultQP struct {
	d     *Device
	inner nvme.QueuePair
	synth []synthCQE
	freed bool
}

func (q *faultQP) enqueue(s synthCQE) { q.synth = append(q.synth, s) }

// Submit implements nvme.QueuePair. Fault decisions are drawn here, in
// submission order, so the schedule is a pure function of seed and
// workload.
func (q *faultQP) Submit(cmd *nvme.Command) error {
	if cmd == nil {
		return nvme.ErrBadCommand
	}
	d := q.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if q.freed {
		return nvme.ErrQueueFreed
	}
	if d.crashed {
		q.enqueue(synthCQE{cb: cmd.Callback, c: nvme.Completion{Cmd: cmd, Err: ErrCrashed}})
		return nil
	}
	p := d.cfg.Probs
	spike := false
	bitrot := -1
	if d.enabled {
		if p.Timeout > 0 && d.rng.Float64() < p.Timeout {
			d.counts.Timeouts++
			q.enqueue(synthCQE{cb: cmd.Callback, c: nvme.Completion{Cmd: cmd, Err: nvme.ErrTimeout}})
			return nil
		}
		switch cmd.Op {
		case nvme.OpRead:
			if p.ReadErr > 0 && d.rng.Float64() < p.ReadErr {
				d.counts.ReadErrs++
				q.enqueue(synthCQE{cb: cmd.Callback, c: nvme.Completion{Cmd: cmd, Err: nvme.ErrMedia}})
				return nil
			}
			if p.BitRot > 0 && d.rng.Float64() < p.BitRot {
				bitrot = d.rng.Intn(cmd.Blocks * d.inner.BlockSize() * 8)
			}
		case nvme.OpWrite:
			if p.WriteErr > 0 && d.rng.Float64() < p.WriteErr {
				d.counts.WriteErrs++
				q.enqueue(synthCQE{cb: cmd.Callback, c: nvme.Completion{Cmd: cmd, Err: nvme.ErrMedia}})
				return nil
			}
			if p.TornWrite > 0 && d.img != nil && cmd.Blocks > 1 && d.rng.Float64() < p.TornWrite {
				d.counts.TornWrites++
				q.tearWrite(cmd)
				return nil
			}
		}
		if p.LatencySpike > 0 && d.rng.Float64() < p.LatencySpike {
			d.counts.Spikes++
			spike = true
		}
	}
	return q.passthrough(cmd, bitrot, spike)
}

// tearWrite applies a block-aligned prefix of a multi-block write and
// fails it: the first blocks hold new bytes, the rest old ones, exactly
// what a power cut between per-LBA programs leaves behind. Single-block
// writes are atomic and never reach here.
func (q *faultQP) tearWrite(cmd *nvme.Command) {
	d := q.d
	bs := d.inner.BlockSize()
	n := cmd.Blocks * bs
	pre := make([]byte, n)
	d.img.ReadAt(cmd.LBA, pre)
	cut := bs * (1 + d.rng.Intn(cmd.Blocks-1))
	mix := make([]byte, n)
	copy(mix, cmd.Buf[:cut])
	copy(mix[cut:], pre[cut:])
	d.img.WriteAt(cmd.LBA, mix)
	q.enqueue(synthCQE{cb: cmd.Callback, c: nvme.Completion{Cmd: cmd, Err: nvme.ErrMedia}})
}

// passthrough forwards cmd to the real device, tracking it for crash
// resolution and applying bit-rot / spike post-processing on completion.
func (q *faultQP) passthrough(cmd *nvme.Command, bitrot int, spike bool) error {
	d := q.d
	fl := &flight{qp: q, cmd: cmd, cb: cmd.Callback}
	if cmd.Op == nvme.OpWrite && d.img != nil {
		n := cmd.Blocks * d.inner.BlockSize()
		fl.pre = make([]byte, n)
		d.img.ReadAt(cmd.LBA, fl.pre)
		fl.post = make([]byte, n)
		copy(fl.post, cmd.Buf[:n])
		fl.start = cmd.LBA * uint64(d.inner.BlockSize())
	}
	realCb := cmd.Callback
	buf := cmd.Buf
	cmd.Callback = func(c nvme.Completion) {
		// Runs from inner Probe, which the wrapper calls unlocked.
		d.mu.Lock()
		d.untrack(fl)
		if d.crashed {
			// Unreachable in the simulated setup (the wrapper stops probing
			// the inner device after a crash), kept as a hard stop.
			d.mu.Unlock()
			return
		}
		if bitrot >= 0 && c.Err == nil {
			buf[bitrot/8] ^= 1 << (bitrot % 8)
			d.counts.BitRots++
		}
		if spike {
			s := synthCQE{cb: realCb, c: c}
			if d.cfg.Now != nil {
				s.due = d.cfg.Now().Add(sim.Duration(d.cfg.SpikeDelay))
				s.hasDue = true
			}
			q.enqueue(s)
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
		if realCb != nil {
			realCb(c)
		}
	}
	if err := q.inner.Submit(cmd); err != nil {
		cmd.Callback = realCb
		return err
	}
	d.track(fl)
	return nil
}

// Probe implements nvme.QueuePair: reap the inner device (unless
// crashed), then deliver due synthesized completions FIFO. Both the
// inner probe and the synthesized callbacks run without the wrapper
// lock held, so completion handlers may re-enter Submit.
func (q *faultQP) Probe(max int) int {
	d := q.d
	d.mu.Lock()
	crashed := d.crashed
	d.mu.Unlock()
	n := 0
	if !crashed {
		n = q.inner.Probe(max)
	}
	d.mu.Lock()
	if len(q.synth) == 0 {
		d.mu.Unlock()
		return n
	}
	limit := -1
	if max > 0 {
		limit = max - n
		if limit <= 0 {
			d.mu.Unlock()
			return n
		}
	}
	var now sim.Time
	if d.cfg.Now != nil {
		now = d.cfg.Now()
	}
	var deliver []synthCQE
	rest := q.synth[:0]
	for _, s := range q.synth {
		ready := !s.hasDue || d.cfg.Now == nil || now >= s.due
		// After a crash the clock may never advance again; release
		// everything so pending operations can drain.
		if d.crashed {
			ready = true
			s.c.Err = ErrCrashed
		}
		if ready && (limit < 0 || len(deliver) < limit) {
			deliver = append(deliver, s)
		} else {
			rest = append(rest, s)
		}
	}
	q.synth = rest
	d.mu.Unlock()
	for _, s := range deliver {
		if s.cb != nil {
			s.cb(s.c)
		}
	}
	return n + len(deliver)
}

// Outstanding implements nvme.QueuePair.
func (q *faultQP) Outstanding() int {
	q.d.mu.Lock()
	pending := len(q.synth)
	crashed := q.d.crashed
	q.d.mu.Unlock()
	if crashed {
		return pending
	}
	return q.inner.Outstanding() + pending
}

// Free implements nvme.QueuePair.
func (q *faultQP) Free() error {
	q.d.mu.Lock()
	q.freed = true
	q.d.mu.Unlock()
	return q.inner.Free()
}
