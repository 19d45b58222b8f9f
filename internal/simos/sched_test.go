package simos

import (
	"testing"
	"time"

	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/sim"
)

func newTestSched(cores int) (*sim.Engine, *Sched) {
	eng := sim.NewEngine()
	s := New(eng, Config{Cores: cores})
	return eng, s
}

func TestSingleThreadWork(t *testing.T) {
	eng, s := newTestSched(1)
	done := sim.Time(-1)
	s.Spawn("w", func(th *Thread) {
		th.Work(metrics.CatRealWork, 100*time.Microsecond)
		done = th.Now()
	})
	eng.Run()
	// 100us of work plus the initial switch-in cost.
	want := sim.Time(100*time.Microsecond + ctxSwitchCost)
	if done != want {
		t.Fatalf("work finished at %v, want %v", done, want)
	}
	if s.Live() != 0 {
		t.Fatalf("live = %d", s.Live())
	}
}

func TestWorkChargesCategory(t *testing.T) {
	eng, s := newTestSched(1)
	var th *Thread
	th = s.Spawn("w", func(tt *Thread) {
		tt.Work(metrics.CatRealWork, 70*time.Microsecond)
		tt.Work(metrics.CatNVMe, 30*time.Microsecond)
	})
	eng.Run()
	if got := th.CPU.Get(metrics.CatRealWork); got != 70*time.Microsecond {
		t.Fatalf("real work charged %v", got)
	}
	if got := th.CPU.Get(metrics.CatNVMe); got != 30*time.Microsecond {
		t.Fatalf("nvme charged %v", got)
	}
}

func TestSleepDoesNotConsumeCPU(t *testing.T) {
	eng, s := newTestSched(1)
	var wake sim.Time
	var th *Thread
	th = s.Spawn("sleeper", func(tt *Thread) {
		tt.Sleep(1 * time.Millisecond)
		wake = tt.Now()
	})
	eng.Run()
	if wake < sim.Time(1*time.Millisecond) {
		t.Fatalf("woke at %v, want >= 1ms", wake)
	}
	// Only the syscall cost should be charged, not the sleep itself.
	if tot := th.CPU.Total(); tot > 10*time.Microsecond {
		t.Fatalf("sleep consumed %v CPU", tot)
	}
	if s.BusyCoreTime() > 10*time.Microsecond {
		t.Fatalf("core busy %v during sleep", s.BusyCoreTime())
	}
}

func TestTwoThreadsShareOneCore(t *testing.T) {
	eng, s := newTestSched(1)
	var doneA, doneB sim.Time
	s.Spawn("a", func(th *Thread) {
		th.Work(metrics.CatRealWork, 5*time.Millisecond)
		doneA = th.Now()
	})
	s.Spawn("b", func(th *Thread) {
		th.Work(metrics.CatRealWork, 5*time.Millisecond)
		doneB = th.Now()
	})
	eng.Run()
	// 10ms of demand on one core: both finish close to 10ms (plus switch
	// overhead), and neither can finish before 5ms.
	if doneA < sim.Time(5*time.Millisecond) || doneB < sim.Time(5*time.Millisecond) {
		t.Fatalf("finished too early: a=%v b=%v", doneA, doneB)
	}
	last := doneA
	if doneB > last {
		last = doneB
	}
	if last < sim.Time(10*time.Millisecond) || last > sim.Time(11*time.Millisecond) {
		t.Fatalf("last finish = %v, want ~10ms", last)
	}
	if s.ContextSwitches() < 2 {
		t.Fatalf("context switches = %d, want >= 2", s.ContextSwitches())
	}
}

func TestTwoCoresRunInParallel(t *testing.T) {
	eng, s := newTestSched(2)
	var doneA, doneB sim.Time
	s.Spawn("a", func(th *Thread) {
		th.Work(metrics.CatRealWork, 5*time.Millisecond)
		doneA = th.Now()
	})
	s.Spawn("b", func(th *Thread) {
		th.Work(metrics.CatRealWork, 5*time.Millisecond)
		doneB = th.Now()
	})
	eng.Run()
	// Each thread has its own core: both finish at ~5ms (+switch).
	for _, d := range []sim.Time{doneA, doneB} {
		if d > sim.Time(5*time.Millisecond+100*time.Microsecond) {
			t.Fatalf("finish = %v, want ~5ms", d)
		}
	}
}

func TestPreemptionInterleavesFairly(t *testing.T) {
	eng, s := newTestSched(1)
	// Thread a is a CPU hog; thread b needs a little CPU repeatedly.
	var bDone sim.Time
	s.Spawn("hog", func(th *Thread) {
		th.Work(metrics.CatRealWork, 100*time.Millisecond)
	})
	s.Spawn("b", func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.Work(metrics.CatRealWork, 100*time.Microsecond)
		}
		bDone = th.Now()
	})
	eng.Run()
	// Without preemption b would wait 100ms. With 2ms timeslices it should
	// be done long before the hog.
	if bDone > sim.Time(40*time.Millisecond) {
		t.Fatalf("b finished at %v; preemption not working", bDone)
	}
}

func TestYieldGivesUpCore(t *testing.T) {
	eng, s := newTestSched(1)
	var order []string
	s.Spawn("a", func(th *Thread) {
		th.Work(metrics.CatRealWork, 10*time.Microsecond)
		th.Yield()
		order = append(order, "a2")
	})
	s.Spawn("b", func(th *Thread) {
		th.Work(metrics.CatRealWork, 10*time.Microsecond)
		order = append(order, "b")
	})
	eng.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a2" {
		t.Fatalf("order = %v, want [b a2]", order)
	}
}

func TestSemaphoreBlocksAndWakes(t *testing.T) {
	eng, s := newTestSched(2)
	sem := s.NewSem(0)
	var consumed, posted sim.Time
	s.Spawn("consumer", func(th *Thread) {
		sem.Wait(th)
		consumed = th.Now()
	})
	s.Spawn("producer", func(th *Thread) {
		th.Sleep(1 * time.Millisecond)
		posted = th.Now()
		sem.Post(th)
	})
	eng.Run()
	if consumed < posted {
		t.Fatalf("consumer ran at %v before post at %v", consumed, posted)
	}
	if consumed < sim.Time(1*time.Millisecond) {
		t.Fatalf("consumer woke too early: %v", consumed)
	}
}

func TestSemaphoreCountingNoBlock(t *testing.T) {
	eng, s := newTestSched(1)
	sem := s.NewSem(2)
	blocked := false
	s.Spawn("w", func(th *Thread) {
		sem.Wait(th)
		sem.Wait(th)
		if !sem.TryWait(th) {
			blocked = true
		}
	})
	eng.Run()
	if !blocked {
		t.Fatal("TryWait succeeded with zero count")
	}
	if sem.Value() != 0 {
		t.Fatalf("sem value = %d", sem.Value())
	}
}

func TestSemaphoreFIFOWakeOrder(t *testing.T) {
	eng, s := newTestSched(4)
	sem := s.NewSem(0)
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		s.Spawn(name, func(th *Thread) {
			sem.Wait(th)
			order = append(order, name)
		})
	}
	s.Spawn("poster", func(th *Thread) {
		th.Sleep(time.Millisecond)
		for i := 0; i < 3; i++ {
			sem.Post(th)
		}
	})
	eng.Run()
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("wake order = %v", order)
	}
}

func TestSemWaitChargesSyncCategory(t *testing.T) {
	eng, s := newTestSched(1)
	sem := s.NewSem(1)
	var th *Thread
	th = s.Spawn("w", func(tt *Thread) { sem.Wait(tt) })
	eng.Run()
	if th.CPU.Get(metrics.CatSync) != SyscallCost {
		t.Fatalf("sync charge = %v", th.CPU.Get(metrics.CatSync))
	}
}

func TestParker(t *testing.T) {
	eng, s := newTestSched(1)
	p := s.NewParker()
	var woke sim.Time
	s.Spawn("w", func(th *Thread) {
		p.Park(th)
		woke = th.Now()
	})
	eng.After(5*time.Millisecond, p.Unpark)
	eng.Run()
	if woke < sim.Time(5*time.Millisecond) {
		t.Fatalf("woke at %v", woke)
	}
	// Token posted before park: no block.
	p2 := s.NewParker()
	p2.Unpark()
	fast := sim.Time(-1)
	s.Spawn("w2", func(th *Thread) {
		start := th.Now()
		p2.Park(th)
		fast = th.Now() - start
	})
	eng.Run()
	if fast > sim.Time(10*time.Microsecond) {
		t.Fatalf("pre-posted park blocked for %v", fast)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	eng, s := newTestSched(4)
	mu := s.NewMutex()
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		s.Spawn("t", func(th *Thread) {
			for j := 0; j < 10; j++ {
				mu.Lock(th)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				th.Work(metrics.CatRealWork, 10*time.Microsecond)
				inside--
				mu.Unlock(th)
			}
		})
	}
	eng.Run()
	if maxInside != 1 {
		t.Fatalf("max threads inside critical section = %d", maxInside)
	}
}

func TestCPUConsumptionMeasure(t *testing.T) {
	eng, s := newTestSched(4)
	// Two threads each busy 10ms in a 4-core machine, then measure at 10ms:
	// consumption ~2 cores.
	for i := 0; i < 2; i++ {
		s.Spawn("busy", func(th *Thread) {
			th.Work(metrics.CatRealWork, 10*time.Millisecond)
		})
	}
	eng.RunUntil(sim.Time(10 * time.Millisecond))
	got := s.CPUConsumption()
	if got < 1.9 || got > 2.1 {
		t.Fatalf("CPU consumption = %v, want ~2", got)
	}
}

func TestResetStats(t *testing.T) {
	eng, s := newTestSched(1)
	s.Spawn("a", func(th *Thread) { th.Work(metrics.CatRealWork, time.Millisecond) })
	s.Spawn("b", func(th *Thread) { th.Work(metrics.CatRealWork, time.Millisecond) })
	eng.Run()
	if s.ContextSwitches() == 0 {
		t.Fatal("expected context switches")
	}
	s.ResetStats()
	if s.ContextSwitches() != 0 || s.BusyCoreTime() != 0 {
		t.Fatal("reset failed")
	}
	if s.CPUConsumption() != 0 {
		t.Fatal("consumption after reset nonzero")
	}
}

func TestManyThreadsContextSwitchStorm(t *testing.T) {
	// 32 threads ping-ponging on one core must generate lots of switches
	// and keep total CPU = sum of demands + switch overhead.
	eng, s := newTestSched(1)
	const n = 32
	for i := 0; i < n; i++ {
		s.Spawn("t", func(th *Thread) {
			for j := 0; j < 20; j++ {
				th.Work(metrics.CatRealWork, 50*time.Microsecond)
				th.Sleep(100 * time.Microsecond)
			}
		})
	}
	eng.Run()
	if s.ContextSwitches() < n*10 {
		t.Fatalf("switches = %d, want many", s.ContextSwitches())
	}
	var work time.Duration
	for _, th := range s.Threads() {
		work += th.CPU.Get(metrics.CatRealWork)
	}
	if work != n*20*50*time.Microsecond {
		t.Fatalf("total real work = %v", work)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64) {
		eng, s := newTestSched(2)
		sem := s.NewSem(0)
		for i := 0; i < 8; i++ {
			d := time.Duration(i+1) * 37 * time.Microsecond
			s.Spawn("p", func(th *Thread) {
				th.Work(metrics.CatRealWork, d)
				sem.Post(th)
			})
		}
		s.Spawn("c", func(th *Thread) {
			for i := 0; i < 8; i++ {
				sem.Wait(th)
			}
		})
		eng.Run()
		return eng.Now(), s.ContextSwitches()
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, c1, t2, c2)
	}
}
