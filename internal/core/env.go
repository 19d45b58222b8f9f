// Package core implements PA-Tree itself: a B+ tree whose index
// operations are decomposed into state machines (§III-A) that one working
// thread executes in an interleaved, polled-mode, asynchronous fashion,
// with operation latches (§III-B), strong/weak persistent buffering
// (§III-C) and the workload-aware scheduler of §IV.
package core

import (
	"sync/atomic"
	"time"

	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
)

// Env abstracts the execution context of the working thread, so the same
// tree code runs on a simulated thread (deterministic experiments,
// virtual-time CPU accounting) and on a real goroutine (the examples).
type Env interface {
	// Now returns the current time on the environment's clock.
	Now() sim.Time
	// Work accounts d of CPU time in category cat. On the simulated
	// environment this actually consumes virtual CPU (and may involve
	// preemption); on the real environment it only accounts.
	Work(cat metrics.CPUCategory, d time.Duration)
	// Sleep blocks the working thread for d, yielding its CPU.
	Sleep(d time.Duration)
	// CPU returns the cumulative per-category CPU account.
	CPU() *metrics.CPUAccount
}

// SimEnv adapts a simulated OS thread to Env.
type SimEnv struct{ T *simos.Thread }

// Now implements Env.
func (e SimEnv) Now() sim.Time { return e.T.Now() }

// Work implements Env.
func (e SimEnv) Work(cat metrics.CPUCategory, d time.Duration) { e.T.Work(cat, d) }

// Sleep implements Env.
func (e SimEnv) Sleep(d time.Duration) { e.T.Sleep(d) }

// CPU implements Env.
func (e SimEnv) CPU() *metrics.CPUAccount { return &e.T.CPU }

// RealEnv is the wall-clock environment used by the examples: Work only
// accounts (the real CPU cost is whatever the host spends), Sleep parks
// on a wakeable timer, and Now is time since construction.
type RealEnv struct {
	start   time.Time
	account *metrics.CPUAccount
	wake    chan struct{}
	// timer is reused across Sleeps (Sleep is only called by the working
	// thread), so an idle-yielding worker allocates nothing per yield.
	timer   *time.Timer
	stopped atomic.Bool
}

// NewRealEnv returns a wall-clock environment starting now.
func NewRealEnv() *RealEnv {
	return &RealEnv{start: time.Now(), account: &metrics.CPUAccount{}, wake: make(chan struct{}, 1)}
}

// Now implements Env.
func (e *RealEnv) Now() sim.Time { return sim.Time(time.Since(e.start)) }

// Work implements Env.
func (e *RealEnv) Work(cat metrics.CPUCategory, d time.Duration) { e.account.Charge(cat, d) }

// Sleep implements Env: it parks for d but returns early on Wake, so an
// idle working thread reacts to a fresh admission immediately instead of
// finishing its yield quantum. The wake channel buffers one token, so an
// admission that lands just before the park is still seen at once.
func (e *RealEnv) Sleep(d time.Duration) {
	if e.timer == nil {
		e.timer = time.NewTimer(d)
	} else {
		e.timer.Reset(d)
	}
	select {
	case <-e.timer.C:
	case <-e.wake:
		// Disarm for the next Reset; if the timer fired concurrently its
		// token is guaranteed to reach the buffered channel — consume it.
		if !e.timer.Stop() {
			<-e.timer.C
		}
	}
}

// Wake interrupts a concurrent (or the next) Sleep. It
// never blocks and coalesces: any number of wakes before the sleeper
// looks collapse into one. Safe from any goroutine.
func (e *RealEnv) Wake() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// CPU implements Env.
func (e *RealEnv) CPU() *metrics.CPUAccount { return e.account }
