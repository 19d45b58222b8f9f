// Package syncbtree implements the paper's two baseline execution schemes
// (§V-A): B+ trees with exactly the same on-device node structure and
// latch-coupling protocol as PA-Tree, but following the traditional
// synchronous execution paradigm — a working thread that issues an I/O is
// blocked until the I/O completes, so exploiting the NVMe's internal
// parallelism requires many threads.
//
// Two I/O disciplines are provided:
//
//   - Dedicated: each working thread owns a queue pair; after submitting
//     it repeatedly probes its own completion queue, sleeping 100µs
//     between probes (the paper's setting) to avoid burning CPU.
//   - Shared: a global I/O request queue served by one daemon thread that
//     owns the device interaction; working threads block on a semaphore
//     until the daemon signals their completion.
package syncbtree

import (
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/wal"
)

// IO is a blocking block-I/O service for simulated threads.
type IO interface {
	// Read fills buf from page id, blocking the thread until complete.
	Read(th *simos.Thread, id uint64, buf []byte) error
	// Write persists data to page id, blocking until complete.
	Write(th *simos.Thread, id uint64, data []byte) error
	// Flush commits the device write cache.
	Flush(th *simos.Thread) error
}

// Dedicated implements IO with one queue pair per thread and a
// 100µs probe sleep (the paper's dedicated approach).
type Dedicated struct {
	dev        nvme.Device
	sched      *simos.Sched
	costs      core.CostModel // PA-Tree's IOSubmit, ProbeCall, ProbePerCQE
	probeSleep time.Duration
	qps        map[int]nvme.QueuePair // thread id -> queue pair
}

// NewDedicated creates the dedicated-discipline I/O service.
func NewDedicated(dev nvme.Device, sched *simos.Sched) *Dedicated {
	return &Dedicated{
		dev:        dev,
		sched:      sched,
		costs:      core.DefaultCosts(),
		probeSleep: 100 * time.Microsecond,
		qps:        make(map[int]nvme.QueuePair),
	}
}

func (d *Dedicated) qpFor(th *simos.Thread) nvme.QueuePair {
	qp := d.qps[th.ID()]
	if qp == nil {
		var err error
		qp, err = d.dev.AllocQueuePair(64)
		if err != nil {
			panic("syncbtree: queue pair allocation failed: " + err.Error())
		}
		d.qps[th.ID()] = qp
	}
	return qp
}

func (d *Dedicated) do(th *simos.Thread, cmd *nvme.Command) error {
	qp := d.qpFor(th)
	done := false
	var ioErr error
	cmd.Callback = func(c nvme.Completion) { done = true; ioErr = c.Err }
	th.Work(metrics.CatNVMe, d.costs.IOSubmit)
	if err := qp.Submit(cmd); err != nil {
		return err
	}
	// Synchronous paradigm: block this thread until the I/O completes,
	// probing every probeSleep.
	for !done {
		th.Sleep(d.probeSleep)
		th.Work(metrics.CatNVMe, d.costs.ProbeCall)
		n := qp.Probe(0)
		th.Work(metrics.CatNVMe, time.Duration(n)*d.costs.ProbePerCQE)
	}
	return ioErr
}

// Read implements IO.
func (d *Dedicated) Read(th *simos.Thread, id uint64, buf []byte) error {
	return d.do(th, &nvme.Command{Op: nvme.OpRead, LBA: id, Blocks: 1, Buf: buf})
}

// Write implements IO.
func (d *Dedicated) Write(th *simos.Thread, id uint64, data []byte) error {
	return d.do(th, &nvme.Command{Op: nvme.OpWrite, LBA: id, Blocks: 1, Buf: data})
}

// Flush implements IO.
func (d *Dedicated) Flush(th *simos.Thread) error {
	return d.do(th, &nvme.Command{Op: nvme.OpFlush})
}

// sharedReq is one queued request in the shared discipline.
type sharedReq struct {
	cmd *nvme.Command
	sem *simos.Sem
	err error
}

// Shared implements IO with a global request queue and a daemon thread
// that owns all device interaction (the paper's shared approach).
// Synchronization between workers and the daemon uses semaphore
// wait/post, exactly the mechanism whose cost Figure 9 highlights.
type Shared struct {
	sched *simos.Sched
	costs core.CostModel // PA-Tree's IOSubmit, ProbeCall, ProbePerCQE

	qp      nvme.QueuePair
	mu      *simos.Mutex
	queue   []*sharedReq
	pending *simos.Sem // counts queued requests for the daemon
	stopped bool

	daemonInflight int
}

// NewShared creates the shared-discipline service and starts its daemon
// thread.
func NewShared(dev nvme.Device, sched *simos.Sched) *Shared {
	qp, err := dev.AllocQueuePair(2048)
	if err != nil {
		panic("syncbtree: daemon queue pair allocation failed: " + err.Error())
	}
	s := &Shared{
		sched:   sched,
		costs:   core.DefaultCosts(),
		qp:      qp,
		mu:      sched.NewMutex(),
		pending: sched.NewSem(0),
	}
	sched.Spawn("io-daemon", s.daemon)
	return s
}

// Stop terminates the daemon once in-flight work drains.
func (s *Shared) Stop() {
	s.stopped = true
	s.pending.PostFromEvent() // wake the daemon so it can observe stop
}

// daemon drains the request queue, submits to the device, and probes for
// completions, posting each requester's semaphore.
func (s *Shared) daemon(th *simos.Thread) {
	for {
		// Wait until at least one request is queued (or stop).
		if len(s.queue) == 0 && s.daemonInflight == 0 {
			if s.stopped {
				return
			}
			s.pending.Wait(th)
			continue
		}
		// Submit everything queued.
		s.mu.Lock(th)
		batch := s.queue
		s.queue = nil
		s.mu.Unlock(th)
		for _, r := range batch {
			req := r
			req.cmd.Callback = func(c nvme.Completion) {
				req.err = c.Err
				s.daemonInflight--
				req.sem.Post(nil) // daemon-side post cost charged below
			}
			th.Work(metrics.CatNVMe, s.costs.IOSubmit)
			th.Work(metrics.CatSync, simos.SyscallCost) // future post
			for s.qp.Submit(req.cmd) != nil {
				// Queue full: reap some completions, then retry.
				th.Work(metrics.CatNVMe, s.costs.ProbeCall)
				n := s.qp.Probe(0)
				th.Work(metrics.CatNVMe, time.Duration(n)*s.costs.ProbePerCQE)
				if n == 0 {
					th.Sleep(5 * time.Microsecond)
				}
			}
			s.daemonInflight++
		}
		// Probe for completions; keep the interval short — the daemon is
		// the only prober for every worker, so it polls aggressively
		// (this very behaviour is why the paper's Table I shows the
		// shared approach under-utilizing the device).
		th.Work(metrics.CatNVMe, s.costs.ProbeCall)
		n := s.qp.Probe(0)
		th.Work(metrics.CatNVMe, time.Duration(n)*s.costs.ProbePerCQE)
		if n == 0 && len(s.queue) == 0 {
			th.Sleep(5 * time.Microsecond)
		}
	}
}

func (s *Shared) do(th *simos.Thread, cmd *nvme.Command) error {
	req := &sharedReq{cmd: cmd, sem: s.sched.NewSem(0)}
	s.mu.Lock(th)
	s.queue = append(s.queue, req)
	s.mu.Unlock(th)
	s.pending.PostFromEvent()
	// Block until the daemon signals completion (semaphore wait).
	req.sem.Wait(th)
	return req.err
}

// Read implements IO.
func (s *Shared) Read(th *simos.Thread, id uint64, buf []byte) error {
	return s.do(th, &nvme.Command{Op: nvme.OpRead, LBA: id, Blocks: 1, Buf: buf})
}

// Write implements IO.
func (s *Shared) Write(th *simos.Thread, id uint64, data []byte) error {
	return s.do(th, &nvme.Command{Op: nvme.OpWrite, LBA: id, Blocks: 1, Buf: data})
}

// Flush implements IO.
func (s *Shared) Flush(th *simos.Thread) error {
	return s.do(th, &nvme.Command{Op: nvme.OpFlush})
}

// LogBlocks returns a wal.BlockWriter that writes a log's block i to page
// base+i of io, blocking th, and keeps the first write error in *err.
func LogBlocks(th *simos.Thread, io IO, base uint64, err *error) wal.BlockWriter {
	return func(idx uint64, data []byte) {
		if e := io.Write(th, base+idx, data); e != nil && *err == nil {
			*err = e
		}
	}
}

// FlushLog is a log-based baseline's strong commit: write every unflushed
// block of log (based at page base), then flush the device.
func FlushLog(th *simos.Thread, io IO, log *wal.Log, base uint64) error {
	var err error
	log.Flush(LogBlocks(th, io, base, &err))
	if err != nil {
		return err
	}
	return io.Flush(th)
}

// ResetLog recycles log, rewriting its first block, and returns the first
// write error.
func ResetLog(th *simos.Thread, io IO, log *wal.Log, base uint64) error {
	var err error
	log.Reset(LogBlocks(th, io, base, &err))
	return err
}
