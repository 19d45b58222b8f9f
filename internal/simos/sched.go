// Package simos simulates a small multi-core operating system on top of the
// discrete-event engine in internal/sim: preemptive threads with
// timeslices, run queues, context-switch costs, semaphores with sleep/wake,
// and per-thread CPU accounting by category.
//
// Simulated threads are real goroutines that execute real Go code (the
// baseline B+ trees run their actual logic inside them), but virtual CPU
// time only passes when a thread explicitly charges it with Work. The
// scheduler resumes exactly one thread goroutine at a time, with a strict
// channel handoff, so the simulation stays deterministic: host-side
// goroutine scheduling can never reorder simulated events.
//
// This substrate replaces the Linux kernel of the paper's testbed. It is
// what lets us measure — exactly, not via perf sampling — the context
// switches, CPU core consumption, and synchronization costs that the
// paper's Figures 7–9 and Tables I–II are about.
package simos

import (
	"fmt"
	"time"

	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/sim"
)

// Config describes the simulated machine.
type Config struct {
	// Cores is the number of physical CPU cores. The paper's testbed has 8.
	Cores int
	// Timeslice is the preemption quantum. Linux CFS grants a few
	// milliseconds under load; we default to 2ms.
	Timeslice time.Duration
	// CtxSwitchCost is the direct cost of a context switch: register/state
	// save-restore, scheduler work, and the cache/TLB-pollution penalty
	// the paper attributes to frequent switches. Default 5µs.
	CtxSwitchCost time.Duration
	// SyscallCost is the user/kernel mode-switch cost charged by blocking
	// primitives (semaphore wait/post, sleep). Default 3µs.
	SyscallCost time.Duration
}

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 8
	}
	if c.Timeslice <= 0 {
		c.Timeslice = 2 * time.Millisecond
	}
	if c.CtxSwitchCost <= 0 {
		c.CtxSwitchCost = 5 * time.Microsecond
	}
	if c.SyscallCost <= 0 {
		c.SyscallCost = 3 * time.Microsecond
	}
	return c
}

type reqKind int

const (
	reqWork reqKind = iota
	reqSleep
	reqYield
	reqBlock
	reqExit
)

type request struct {
	kind reqKind
	cat  metrics.CPUCategory
	d    time.Duration
}

type threadState int

const (
	stateRunnable threadState = iota
	stateRunning
	stateBlocked
	stateSleeping
	stateDead
)

// Thread is a simulated kernel thread. Methods on Thread must only be
// called from within the thread's own body function.
type Thread struct {
	sched *Sched
	name  string
	id    int

	resume  chan struct{}
	request chan request

	state  threadState
	demand time.Duration       // unfinished CPU demand of the current request
	cat    metrics.CPUCategory // category of the demand
	core   *core               // core currently running this thread, if any

	// CPU is the per-thread CPU account, charged as work is consumed.
	CPU metrics.CPUAccount

	wakeTimer sim.EventID
	started   bool
	exited    bool
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// ID returns the thread's unique id.
func (t *Thread) ID() int { return t.id }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.sched.eng.Now() }

// Work consumes d of virtual CPU time charged to category cat. The call
// returns once the simulated thread has actually been granted that much
// CPU, which may involve waiting for a core and being preempted.
func (t *Thread) Work(cat metrics.CPUCategory, d time.Duration) {
	if d <= 0 {
		return
	}
	t.call(request{kind: reqWork, cat: cat, d: d})
}

// Sleep blocks the thread for d of virtual time without consuming CPU
// (apart from the syscall cost of blocking).
func (t *Thread) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.Work(metrics.CatOther, t.sched.cfg.SyscallCost)
	t.call(request{kind: reqSleep, d: d})
}

// Yield releases the core and re-queues the thread at the tail of the run
// queue, like sched_yield(2).
func (t *Thread) Yield() {
	t.call(request{kind: reqYield})
}

// block parks the thread until some other party calls sched.wake(t).
func (t *Thread) block() {
	t.call(request{kind: reqBlock})
}

// call hands control to the scheduler and waits to be resumed.
func (t *Thread) call(r request) {
	if t.exited {
		panic("simos: request from exited thread")
	}
	t.request <- r
	<-t.resume
}

// core models one physical CPU.
type core struct {
	id       int
	busy     bool
	last     *Thread // last thread that ran here (affects switch cost)
	busyNs   time.Duration
	busyFrom sim.Time
}

func (c *core) markBusy(now sim.Time) {
	if !c.busy {
		c.busy = true
		c.busyFrom = now
	}
}

func (c *core) markIdle(now sim.Time) {
	if c.busy {
		c.busy = false
		c.busyNs += now.Sub(c.busyFrom)
	}
}

// Sched is the simulated OS scheduler.
type Sched struct {
	eng   *sim.Engine
	cfg   Config
	cores []*core
	runq  []*Thread // FIFO run queue

	threads    []*Thread
	nextID     int
	liveCount  int
	ctxSwitch  metrics.Counter
	dispatchIn bool
	startT     sim.Time
}

// New creates a scheduler on the given engine.
func New(eng *sim.Engine, cfg Config) *Sched {
	cfg = cfg.withDefaults()
	s := &Sched{eng: eng, cfg: cfg, startT: eng.Now()}
	for i := 0; i < cfg.Cores; i++ {
		s.cores = append(s.cores, &core{id: i})
	}
	return s
}

// Engine returns the underlying DES engine.
func (s *Sched) Engine() *sim.Engine { return s.eng }

// Config returns the machine configuration.
func (s *Sched) Config() Config { return s.cfg }

// ContextSwitches returns the total number of context switches so far.
func (s *Sched) ContextSwitches() uint64 { return s.ctxSwitch.Value() }

// Live returns the number of threads that have not exited.
func (s *Sched) Live() int { return s.liveCount }

// Threads returns all threads ever spawned, in spawn order.
func (s *Sched) Threads() []*Thread { return s.threads }

// BusyCoreTime returns the total core-busy time across all cores,
// including context-switch overhead.
func (s *Sched) BusyCoreTime() time.Duration {
	var total time.Duration
	now := s.eng.Now()
	for _, c := range s.cores {
		total += c.busyNs
		if c.busy {
			total += now.Sub(c.busyFrom)
		}
	}
	return total
}

// CPUConsumption returns the average number of busy cores since start,
// the measure used in the paper's Table I (0.0 … Cores).
func (s *Sched) CPUConsumption() float64 {
	elapsed := s.eng.Now().Sub(s.startT)
	if elapsed <= 0 {
		return 0
	}
	return float64(s.BusyCoreTime()) / float64(elapsed)
}

// ResetStats zeroes context-switch and core-busy accounting; used by the
// harness to exclude the load phase from measurements.
func (s *Sched) ResetStats() {
	s.ctxSwitch.Reset()
	now := s.eng.Now()
	s.startT = now
	for _, c := range s.cores {
		c.busyNs = 0
		if c.busy {
			c.busyFrom = now
		}
	}
	for _, t := range s.threads {
		t.CPU.Reset()
	}
}

// Spawn creates a thread running fn. The thread becomes runnable
// immediately (at the current virtual time) and starts when a core picks
// it up. Spawn may be called from outside the simulation (setup code) or
// from within a thread body.
func (s *Sched) Spawn(name string, fn func(t *Thread)) *Thread {
	s.nextID++
	t := &Thread{
		sched:   s,
		name:    name,
		id:      s.nextID,
		resume:  make(chan struct{}),
		request: make(chan request),
		state:   stateRunnable,
	}
	s.threads = append(s.threads, t)
	s.liveCount++
	go func() {
		<-t.resume
		fn(t)
		t.exited = true
		t.request <- request{kind: reqExit}
	}()
	s.enqueue(t)
	return t
}

// enqueue appends t to the run queue and arranges a dispatch.
func (s *Sched) enqueue(t *Thread) {
	t.state = stateRunnable
	s.runq = append(s.runq, t)
	s.scheduleDispatch()
}

// wake makes a blocked or sleeping thread runnable. Safe to call from any
// simulation context (thread bodies, device callbacks, DES events).
func (s *Sched) wake(t *Thread) {
	if t.state != stateBlocked && t.state != stateSleeping {
		return
	}
	if t.state == stateSleeping {
		s.eng.Cancel(t.wakeTimer)
	}
	s.enqueue(t)
}

// scheduleDispatch coalesces dispatch requests into a single zero-delay
// event so that run-queue mutations made from inside thread bodies take
// effect once control returns to the engine.
func (s *Sched) scheduleDispatch() {
	if s.dispatchIn {
		return
	}
	s.dispatchIn = true
	s.eng.After(0, func() {
		s.dispatchIn = false
		s.dispatch()
	})
}

// dispatch assigns runnable threads to idle cores.
func (s *Sched) dispatch() {
	for _, c := range s.cores {
		if c.busy {
			continue
		}
		if len(s.runq) == 0 {
			return
		}
		t := s.runq[0]
		s.runq = s.runq[1:]
		s.startOn(c, t)
	}
}

// startOn begins running t on core c, charging a context switch if the
// core last ran a different thread.
func (s *Sched) startOn(c *core, t *Thread) {
	now := s.eng.Now()
	c.markBusy(now)
	t.state = stateRunning
	t.core = c
	var switchCost time.Duration
	if c.last != t {
		switchCost = s.cfg.CtxSwitchCost
		s.ctxSwitch.Inc()
		t.CPU.Charge(metrics.CatOther, switchCost)
	}
	c.last = t
	sliceEnd := now.Add(switchCost + s.cfg.Timeslice)
	if switchCost > 0 {
		s.eng.After(switchCost, func() { s.runStep(c, t, sliceEnd) })
	} else {
		s.runStep(c, t, sliceEnd)
	}
}

// runStep advances t on c: satisfies finished requests, consumes CPU
// demand, and handles preemption at slice boundaries.
func (s *Sched) runStep(c *core, t *Thread, sliceEnd sim.Time) {
	for {
		now := s.eng.Now()
		if t.demand <= 0 {
			// The previous request is satisfied: resume the goroutine, let
			// it compute (zero virtual time), and take its next request.
			t.resume <- struct{}{}
			r := <-t.request
			switch r.kind {
			case reqWork:
				t.demand = r.d
				t.cat = r.cat
				continue
			case reqSleep:
				s.leaveCore(c, t)
				t.state = stateSleeping
				tt := t
				t.wakeTimer = s.eng.After(r.d, func() { s.enqueue(tt) })
				return
			case reqYield:
				s.leaveCore(c, t)
				s.enqueue(t)
				return
			case reqBlock:
				s.leaveCore(c, t)
				t.state = stateBlocked
				return
			case reqExit:
				s.leaveCore(c, t)
				t.state = stateDead
				s.liveCount--
				return
			default:
				panic(fmt.Sprintf("simos: unknown request kind %d", r.kind))
			}
		}
		if now >= sliceEnd {
			// Slice expired with demand remaining: preempt if anyone else
			// wants the core, otherwise keep it with a fresh slice.
			s.maybePreempt(c, t)
			if t.state != stateRunning {
				return
			}
			sliceEnd = now.Add(s.cfg.Timeslice)
		}
		// Consume demand until it finishes or the slice expires.
		runFor := t.demand
		if end := now.Add(runFor); end > sliceEnd {
			runFor = sliceEnd.Sub(now)
		}
		cc, tt, se := c, t, sliceEnd
		s.eng.After(runFor, func() {
			tt.demand -= runFor
			tt.CPU.Charge(tt.cat, runFor)
			s.runStep(cc, tt, se)
		})
		return
	}
}

// maybePreempt puts t back on the run queue if anyone else is waiting;
// otherwise lets it keep the core with a fresh slice.
func (s *Sched) maybePreempt(c *core, t *Thread) {
	if len(s.runq) == 0 {
		return // nothing else to run: keep the core
	}
	s.leaveCore(c, t)
	s.enqueue(t)
}

// leaveCore detaches t from c and triggers a dispatch for the freed core.
func (s *Sched) leaveCore(c *core, t *Thread) {
	c.markIdle(s.eng.Now())
	t.core = nil
	s.scheduleDispatch()
}
