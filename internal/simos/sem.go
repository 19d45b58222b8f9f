package simos

import "github.com/patree/patree/internal/metrics"

// Sem is a counting semaphore for simulated threads, modelling the
// sem_wait/sem_post primitives the paper's baseline approaches use for
// inter-thread synchronization. Wait and Post charge the caller the
// configured syscall cost under the "synchronization" CPU category, which
// is exactly the cost Figure 9 attributes to the baselines.
type Sem struct {
	sched   *Sched
	count   int
	waiters []*Thread
}

// NewSem creates a semaphore with the given initial count.
func (s *Sched) NewSem(initial int) *Sem {
	return &Sem{sched: s, count: initial}
}

// Wait decrements the semaphore, blocking the calling thread while the
// count is zero. FIFO wake order.
func (m *Sem) Wait(t *Thread) {
	t.Work(metrics.CatSync, m.sched.cfg.SyscallCost)
	if m.count > 0 {
		m.count--
		return
	}
	m.waiters = append(m.waiters, t)
	t.block()
}

// TryWait decrements without blocking; reports whether it succeeded.
func (m *Sem) TryWait(t *Thread) bool {
	t.Work(metrics.CatSync, m.sched.cfg.SyscallCost)
	if m.count > 0 {
		m.count--
		return true
	}
	return false
}

// Post increments the semaphore, waking the longest-waiting thread if any.
// The waiter is handed the token directly (it does not re-contend).
func (m *Sem) Post(t *Thread) {
	if t != nil {
		t.Work(metrics.CatSync, m.sched.cfg.SyscallCost)
	}
	m.post()
}

// PostFromEvent increments the semaphore from a non-thread context (a DES
// event such as a device completion callback); no CPU is charged.
func (m *Sem) PostFromEvent() { m.post() }

func (m *Sem) post() {
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.sched.wake(w)
		return
	}
	m.count++
}

// Value returns the current count (waiters imply zero).
func (m *Sem) Value() int { return m.count }

// Mutex is a binary semaphore with Lock/Unlock naming, used by baselines
// for short critical sections (it still costs a syscall per operation,
// matching the futex-under-contention behaviour the paper measures).
type Mutex struct{ s Sem }

// NewMutex creates an unlocked mutex.
func (s *Sched) NewMutex() *Mutex {
	return &Mutex{s: Sem{sched: s, count: 1}}
}

// Lock acquires the mutex, blocking the thread if needed.
func (m *Mutex) Lock(t *Thread) { m.s.Wait(t) }

// Unlock releases the mutex.
func (m *Mutex) Unlock(t *Thread) { m.s.Post(t) }

// Parker lets a thread park itself until another context unparks it; a
// one-shot binary signal used for I/O completion waits. Unlike Sem it
// never accumulates more than one token.
type Parker struct {
	sched  *Sched
	token  bool
	parked *Thread
}

// NewParker returns a Parker with no pending token.
func (s *Sched) NewParker() *Parker { return &Parker{sched: s} }

// Park blocks the calling thread until a token is available, consuming it.
func (p *Parker) Park(t *Thread) {
	t.Work(metrics.CatSync, p.sched.cfg.SyscallCost)
	if p.token {
		p.token = false
		return
	}
	if p.parked != nil {
		panic("simos: Parker supports a single parked thread")
	}
	p.parked = t
	t.block()
}

// Unpark makes a token available, waking the parked thread if present.
// Safe to call from DES events.
func (p *Parker) Unpark() {
	if p.parked != nil {
		w := p.parked
		p.parked = nil
		p.sched.wake(w)
		return
	}
	p.token = true
}
