package sched

import (
	"testing"
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/probe"
	"github.com/patree/patree/internal/sim"
)

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO()
	for i := uint64(0); i < 5; i++ {
		q.Push(Entry{Seq: i, HoldsWrite: i%2 == 0})
	}
	for i := uint64(0); i < 5; i++ {
		e, ok := q.Pop()
		if !ok || e.Seq != i {
			t.Fatalf("pop %d = %+v, %v", i, e, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestPriorityWriteHoldersFirst(t *testing.T) {
	q := NewPriority()
	q.Push(Entry{Seq: 1})
	q.Push(Entry{Seq: 2, HoldsWrite: true})
	q.Push(Entry{Seq: 0})
	q.Push(Entry{Seq: 3, HoldsWrite: true})
	wantSeq := []uint64{2, 3, 0, 1}
	for i, w := range wantSeq {
		e, ok := q.Pop()
		if !ok || e.Seq != w {
			t.Fatalf("pop %d: seq = %d, want %d", i, e.Seq, w)
		}
	}
}

func TestPriorityAdmissionOrderWithinClass(t *testing.T) {
	q := NewPriority()
	for _, s := range []uint64{5, 1, 9, 3} {
		q.Push(Entry{Seq: s})
	}
	prev := uint64(0)
	for q.Len() > 0 {
		e, _ := q.Pop()
		if e.Seq < prev {
			t.Fatalf("out of order: %d after %d", e.Seq, prev)
		}
		prev = e.Seq
	}
}

func TestQueueLen(t *testing.T) {
	for _, q := range []ReadyQueue{NewFIFO(), NewPriority()} {
		if q.Len() != 0 {
			t.Fatal("fresh queue nonempty")
		}
		q.Push(Entry{Seq: 1})
		q.Push(Entry{Seq: 2})
		if q.Len() != 2 {
			t.Fatalf("len = %d", q.Len())
		}
		q.Pop()
		if q.Len() != 1 {
			t.Fatalf("len after pop = %d", q.Len())
		}
	}
}

// TestAlwaysProbe pins Algorithm 1's rule and its idle park: with any
// I/O outstanding the worker probes at once, however little time has
// passed since the last probe, and never yields; with none it never
// probes and yields Idle. The zero value (Idle 0) is the paper's naive
// baseline, which never yields.
func TestAlwaysProbe(t *testing.T) {
	now := sim.Time(10 * time.Millisecond)
	for _, idle := range []time.Duration{0, 20 * time.Microsecond} {
		p := &AlwaysProbe{Idle: idle}
		p.OnSubmit(nvme.OpWrite, now)
		p.OnProbe(now)
		for _, elapsed := range []time.Duration{0, time.Nanosecond, time.Microsecond, time.Millisecond} {
			at := now.Add(elapsed)
			for _, blocked := range []int{0, 1, 64} {
				wantYield := time.Duration(0)
				if blocked == 0 {
					wantYield = idle
				}
				if got := p.ShouldProbe(at, blocked); got != (blocked > 0) {
					t.Errorf("idle=%v: ShouldProbe(%v after a probe, %d outstanding) = %v", idle, elapsed, blocked, got)
				}
				if got := p.YieldFor(at, blocked); got != wantYield {
					t.Errorf("idle=%v: YieldFor(%v after a probe, %d outstanding) = %v, want %v", idle, elapsed, blocked, got, wantYield)
				}
			}
		}
	}
	if *NewAlwaysProbe() != (AlwaysProbe{}) {
		t.Fatal("NewAlwaysProbe is not the zero value")
	}
}

func TestFixedCyclePeriod(t *testing.T) {
	p := NewFixedCycle(100 * time.Microsecond)
	now := sim.Time(1000)
	if !p.ShouldProbe(now, 1) {
		t.Fatal("first probe denied")
	}
	p.OnProbe(now)
	if p.ShouldProbe(now.Add(50*time.Microsecond), 1) {
		t.Fatal("probed before cycle elapsed")
	}
	if !p.ShouldProbe(now.Add(100*time.Microsecond), 1) {
		t.Fatal("probe denied after cycle")
	}
}

func TestAvgLatencyAdapts(t *testing.T) {
	p := NewAvgLatency()
	now := sim.Time(time.Second)
	// Feed completions with 80us latency.
	for i := 0; i < 100; i++ {
		at := now.Add(time.Duration(i) * time.Microsecond)
		p.OnDetected(nvme.OpRead, at-sim.Time(80*time.Microsecond), at)
	}
	if got := p.avg(); got < 79*time.Microsecond || got > 81*time.Microsecond {
		t.Fatalf("avg = %v, want ~80us", got)
	}
	p.OnProbe(now)
	if p.ShouldProbe(now.Add(40*time.Microsecond), 1) {
		t.Fatal("probed before avg elapsed")
	}
	if !p.ShouldProbe(now.Add(85*time.Microsecond), 1) {
		t.Fatal("probe denied after avg elapsed")
	}
}

func TestAvgLatencyWindowExpires(t *testing.T) {
	p := NewAvgLatency()
	p.OnDetected(nvme.OpRead, 0, sim.Time(100*time.Microsecond))
	// 2 seconds later all buckets rotated out: fallback applies.
	later := sim.Time(2 * time.Second)
	p.OnDetected(nvme.OpRead, later-sim.Time(50*time.Microsecond), later)
	if got := p.avg(); got != 50*time.Microsecond {
		t.Fatalf("avg = %v, want 50us (old sample must have expired)", got)
	}
}

func newWorkloadPolicy(t *testing.T, yield time.Duration) *Workload {
	t.Helper()
	m, err := probe.Default()
	if err != nil {
		t.Fatal(err)
	}
	return NewWorkload(m, nil, yield)
}

func TestWorkloadProbeGating(t *testing.T) {
	p := newWorkloadPolicy(t, 0)
	now := sim.Time(10 * time.Millisecond)
	if p.ShouldProbe(now, 0) {
		t.Fatal("probe with no blocked IO")
	}
	// Fresh submissions (0-50us old): nothing should be predicted yet,
	// and the safety deadline hasn't passed (we just probed).
	p.OnProbe(now)
	// A single fresh read: expected completions within the next slice are
	// well under 1, so the model must hold off.
	p.OnSubmit(nvme.OpRead, now)
	if p.ShouldProbe(now.Add(5*time.Microsecond), 1) {
		t.Fatal("probed for one fresh read")
	}
	// A full queue of mature reads (75us mean service, ~120us old): the
	// model must call for a probe.
	for i := 0; i < 31; i++ {
		p.OnSubmit(nvme.OpRead, now)
	}
	if !p.ShouldProbe(now.Add(120*time.Microsecond), 32) {
		t.Fatal("no probe despite mature in-flight reads")
	}
}

func TestWorkloadSafetyDeadline(t *testing.T) {
	p := newWorkloadPolicy(t, 0)
	now := sim.Time(time.Millisecond)
	p.OnProbe(now)
	// No tracked submissions at all, but one op is blocked (model blind
	// spot): the safety deadline must force a probe eventually.
	if p.ShouldProbe(now.Add(50*time.Microsecond), 1) {
		t.Fatal("probed before safety deadline with zero prediction")
	}
	if !p.ShouldProbe(now.Add(250*time.Microsecond), 1) {
		t.Fatal("safety deadline did not force probe")
	}
}

func TestWorkloadYield(t *testing.T) {
	p := newWorkloadPolicy(t, 50*time.Microsecond)
	now := sim.Time(10 * time.Millisecond)
	// Idle: yield.
	if got := p.YieldFor(now, 0); got != 50*time.Microsecond {
		t.Fatalf("idle yield = %v", got)
	}
	// In-flight mature reads: must not yield (completions imminent).
	for i := 0; i < 8; i++ {
		p.OnSubmit(nvme.OpRead, now)
	}
	if got := p.YieldFor(now.Add(40*time.Microsecond), 8); got != 0 {
		t.Fatalf("yield = %v with imminent completions", got)
	}
	// Yield disabled.
	p2 := newWorkloadPolicy(t, 0)
	if p2.YieldFor(now, 0) != 0 {
		t.Fatal("disabled yield returned nonzero")
	}
}

// TestWorkloadIdleYieldIgnoresAdmission pins the idle rule: with nothing
// in flight the worker yields the granularity, even right after a
// submission and its completion; the policy sees no admission signal at
// all.
func TestWorkloadIdleYieldIgnoresAdmission(t *testing.T) {
	p := newWorkloadPolicy(t, 20*time.Microsecond)
	now := sim.Time(10 * time.Millisecond)
	p.OnSubmit(nvme.OpWrite, now)
	p.OnDetected(nvme.OpWrite, now, now)
	if got := p.YieldFor(now, 0); got != 20*time.Microsecond {
		t.Fatalf("idle yield = %v, want the 20µs granularity", got)
	}
}

// TestWorkloadPolled pins the polled rule a serving worker runs in place of
// Workload: AlwaysProbe with Workload's idle granularity probes whenever I/O
// is outstanding, where the model would still wait, and parks for the same
// granularity as Workload when nothing is.
func TestWorkloadPolled(t *testing.T) {
	const idle = 20 * time.Microsecond
	now := sim.Time(10 * time.Millisecond)
	w := newWorkloadPolicy(t, idle)
	w.OnSubmit(nvme.OpWrite, now)
	w.OnProbe(now)
	if w.ShouldProbe(now, 1) {
		t.Fatal("the model probes with no elapsed time: the pin below proves nothing")
	}
	p := &AlwaysProbe{Idle: idle}
	p.OnSubmit(nvme.OpWrite, now)
	p.OnProbe(now)
	for _, blocked := range []int{1, 2, 64} {
		if !p.ShouldProbe(now, blocked) {
			t.Errorf("polled ShouldProbe(no time after a probe, %d outstanding) = false", blocked)
		}
		if got := p.YieldFor(now, blocked); got != 0 {
			t.Errorf("polled YieldFor(%d outstanding) = %v, want 0", blocked, got)
		}
	}
	if p.ShouldProbe(now, 0) {
		t.Error("polled ShouldProbe(nothing outstanding) = true")
	}
	if got, want := p.YieldFor(now, 0), w.YieldFor(now, 0); got != want || got != idle {
		t.Errorf("idle yield: polled %v, Workload %v, want both %v", got, want, idle)
	}
}

func TestPolicyNamesAndOverheads(t *testing.T) {
	m, _ := probe.Default()
	ps := []Policy{NewAlwaysProbe(), NewFixedCycle(time.Microsecond), NewAvgLatency(), NewWorkload(m, nil, 0)}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name() == "" || seen[p.Name()] {
			t.Fatalf("bad/duplicate name %q", p.Name())
		}
		seen[p.Name()] = true
		if p.Overhead() <= 0 {
			t.Fatalf("%s overhead = %v", p.Name(), p.Overhead())
		}
	}
}
