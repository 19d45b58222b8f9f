package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/probe"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
)

// Virtual-time phases, as shares of -seconds: at the default 10 s they are
// a 50 ms loaded warm-up, a 1 s loaded window at 64 outstanding, a 5 ms
// drain, and a 1.5 s unloaded window at 1 outstanding.
const (
	simWarm     = 1.0 / 200
	simLoaded   = 1.0 / 10
	simDrain    = 1.0 / 2000
	simUnloaded = 0.15
	simConc     = 64 // the paper's closed-loop concurrency
	// simThink is the unloaded caller's mean think time between a reply
	// and its next request (exponential). With none, each request would
	// start in lockstep with the worker's probe schedule and every
	// latency would be the same number; an independent caller arrives at
	// a random phase of it.
	simThink = 100 * time.Microsecond
)

// simMachine is one simulated testbed with a bulk-loaded PA-Tree in the
// configuration of the paper's Fig 7/8: one working thread, workload-aware
// probing, prioritized ready queue, no buffer, strong persistence.
type simMachine struct {
	eng    *sim.Engine
	os     *simos.Sched
	dev    *countDev
	tree   *core.Tree
	policy *sched.Workload
}

func newSimMachine(seed uint64, pairs []core.KV, tr *tracer) (*simMachine, error) {
	m := &simMachine{eng: sim.NewEngine()}
	m.os = simos.New(m.eng, simos.Config{})
	sd := nvme.NewSimDevice(m.eng, nvme.SimConfig{Seed: seed ^ 0xdead})
	m.dev = newCountDev(sd, func() int64 { return int64(m.eng.Now()) }, tr)
	meta, err := core.BulkLoad(m.dev, pairs, 0.7)
	if err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	model, err := probe.Default()
	if err != nil {
		return nil, fmt.Errorf("probe model: %w", err)
	}
	m.policy = sched.NewWorkload(model, nil, 20*time.Microsecond)
	m.policy.EnableAccuracy() // observation only; never alters a probe decision
	worker := m.os.Spawn("patree", func(*simos.Thread) { m.tree.Run() })
	m.tree, err = core.New(m.dev, core.Config{
		Persistence: core.StrongPersistence,
		BufferPages: 0,
		Policy:      m.policy,
		Prioritized: true,
	}, core.SimEnv{T: worker}, meta)
	if err != nil {
		return nil, fmt.Errorf("new tree: %w", err)
	}
	return m, nil
}

// stop ends the working thread and lets the simulation drain.
func (m *simMachine) stop() {
	m.tree.Stop()
	m.eng.RunFor(2 * time.Second)
}

// simDriver is the benchmark's own closed-loop driver: it keeps `target`
// operations outstanding, each completion admitting the next, and checks
// every result against the model. Everything runs inside the simulation,
// one event at a time.
type simDriver struct {
	sp      *spec
	mc      *simMachine
	m       *model
	z       *zipf
	r       rng
	target  int
	out     int
	think   bool            // wait an exponential think time before the next request
	writing map[uint32]bool // ranks with a write in flight
	tr      *tracer
	span    uint64 // the open "op" span of the unloaded phase

	record    bool // collect latencies and count operations
	ops       uint64
	userBytes uint64
	lat       samples
	done      uint64
	failed    uint64
}

func (d *simDriver) admit() {
	rank := uint32(d.z.sample(&d.r))
	d.out++
	if d.tr != nil && d.tr.detail.Load() {
		d.span = d.tr.open(spanOp, 0, int64(d.mc.eng.Now()))
		d.tr.cur.Store(d.span)
	}
	if int(d.r.intn(100)) < d.sp.mix.put {
		// The paper's updates overwrite: an insert-or-replace.
		for d.writing[rank] {
			rank = (rank + 1) % uint32(d.m.keys)
		}
		d.writing[rank] = true
		key := d.m.key(rank)
		st := d.m.issue(rank, true)
		val := d.m.encode(make([]byte, d.m.valueSize), key, stateVer(st))
		d.mc.tree.Admit(core.NewInsert(key, val, func(o *core.Op) {
			delete(d.writing, rank)
			if o.Res.Err == nil {
				d.m.ack(rank)
				if d.record {
					d.userBytes += uint64(d.m.userBytes())
				}
			}
			d.complete(o, o.Res.Err == nil)
		}))
		return
	}
	lo := d.m.loadAcked(rank)
	d.mc.tree.Admit(core.NewSearch(d.m.key(rank), func(o *core.Op) {
		ok := o.Res.Err == nil && d.m.checkPoint(rank, lo, d.m.loadIssued(rank), o.Res.Found, o.Res.Value)
		d.complete(o, ok)
	}))
}

func (d *simDriver) complete(o *core.Op, ok bool) {
	d.out--
	d.done++
	if !ok {
		d.failed++
	}
	if d.record {
		d.ops++
		d.lat = append(d.lat, int64(o.Res.Latency()))
	}
	if d.span != 0 {
		d.tr.end(d.span, int64(d.mc.eng.Now()))
		d.tr.cur.Store(0)
		d.span = 0
	}
	if d.think {
		d.mc.eng.After(time.Duration(-float64(simThink)*math.Log(1-d.r.float())), d.fill)
		return
	}
	d.fill()
}

// fill admits operations until target are outstanding.
func (d *simDriver) fill() {
	for d.out < d.target {
		d.admit()
	}
}

// sweep reads the whole tree in key order, in virtual time, and compares
// it with the model.
func (d *simDriver) sweep() (checked, bad uint64) {
	c := d.m.newSweep()
	finished := false
	var scan func(lo uint64)
	scan = func(lo uint64) {
		d.mc.tree.Admit(core.NewRange(lo, math.MaxUint64, sweepChunk, func(o *core.Op) {
			if o.Res.Err != nil {
				finished = true
				return
			}
			if lo, finished = c.feed(o.Res.Pairs); !finished {
				scan(lo)
			}
		}))
	}
	d.mc.eng.After(0, func() { scan(0) })
	for !finished && d.mc.eng.Step() {
	}
	return c.result()
}

// simOut is what one simulated run measured.
type simOut struct {
	loadedSecs  float64
	ops         uint64 // loaded window
	userBytes   uint64
	dev         devCounts
	loadLat     samples // per-operation latency, loaded window
	cpu         *metrics.CPUAccount
	idleSpin    time.Duration
	latchWaits  uint64
	latchWaitNs float64 // mean ns per operation spent latch-blocked, loaded window
	admitWaits  uint64
	busyCores   float64
	ctxSwitch   uint64
	hostCPU     time.Duration
	mem         memDelta
	timings     tracedTimings
	absErrP50   time.Duration
	bias        time.Duration
	hitRate     float64

	unloaded samples                   // per-operation latency, unloaded window
	stages   map[metrics.Stage]float64 // mean ns per operation, unloaded window

	distinct         uint64 // LBAs ever written
	blockSize        int
	live             int64
	done, failed     uint64
	checked, badKeys uint64
}

// simOnce builds a machine and runs the four phases and the sweep.
func simOnce(sp *spec, cfg *runCfg, m *model, pairs []core.KV, tr *tracer) (*simOut, error) {
	mc, err := newSimMachine(cfg.seed, pairs, tr)
	if err != nil {
		return nil, err
	}
	d := &simDriver{sp: sp, mc: mc, m: m, z: newZipf(uint64(m.keys), sp.theta), target: simConc, writing: map[uint32]bool{}, tr: tr}
	d.r.s = mix64(cfg.seed ^ 0xd21e)
	out := &simOut{}
	eng := mc.eng
	at := func(share float64) sim.Time { return eng.Now().Add(cfg.dur(share)) }

	eng.After(0, d.fill)
	eng.RunUntil(at(simWarm))

	// Loaded window: zero every statistic at its start.
	mc.os.ResetStats()
	mc.tree.ResetStats()
	mc.policy.Accuracy().Reset()
	mc.dev.traced.Store(tr != nil)
	dev0, cpu0, mem0 := mc.dev.counts(), cpuTime(), readMem()
	d.record = true
	t0 := eng.Now()
	eng.RunUntil(at(simLoaded))
	d.record = false
	out.loadedSecs = eng.Now().Sub(t0).Seconds()
	out.ops, out.userBytes, out.loadLat = d.ops, d.userBytes, d.lat
	out.dev = mc.dev.counts().sub(dev0)
	out.hostCPU, out.mem = cpuTime()-cpu0, mem0.until(readMem())
	st := mc.tree.StatsSnapshot()
	cpu := *mc.tree.CPUSnapshot()
	out.cpu, out.idleSpin = &cpu, st.IdleSpinTime
	out.latchWaits, out.admitWaits = mc.tree.LatchWaits(), st.AdmitWaits
	lw := metrics.NewHistogram()
	st.Stages.MergedInto(metrics.StageLatchWait, lw)
	out.latchWaitNs = ratio(float64(lw.Count())*float64(lw.Mean()), float64(d.ops))
	out.busyCores, out.ctxSwitch = mc.os.CPUConsumption(), mc.os.ContextSwitches()
	out.hitRate = mc.tree.BufferStats().HitRate()
	acc := mc.policy.Accuracy()
	out.absErrP50, out.bias = acc.AbsErr().Percentile(50), acc.Bias()
	out.timings = mc.dev.drainTimings()

	// Drain to one outstanding operation, then the unloaded window.
	d.target, d.think = 1, true
	eng.RunUntil(at(simDrain))
	mc.tree.ResetStats()
	if tr != nil {
		tr.detail.Store(true)
	}
	d.ops, d.lat, d.record = 0, nil, true
	eng.RunUntil(at(simUnloaded))
	d.record = false
	if tr != nil {
		tr.detail.Store(false)
	}
	mc.dev.traced.Store(false)
	out.unloaded = d.lat.sorted()
	out.stages = map[metrics.Stage]float64{}
	if n := float64(d.ops); n > 0 {
		set := mc.tree.StatsSnapshot().Stages
		for _, stage := range metrics.Stages() {
			h := metrics.NewHistogram()
			set.MergedInto(stage, h)
			out.stages[stage] = float64(h.Count()) * float64(h.Mean()) / n
		}
	}

	// Let the last operation finish, then check every key.
	d.target, d.think = 0, false
	for d.out > 0 && eng.Step() {
	}
	out.checked, out.badKeys = d.sweep()
	out.done, out.failed = d.done, d.failed
	out.distinct, out.blockSize, out.live = mc.dev.distinctWritten(), mc.dev.BlockSize(), m.live.Load()
	mc.stop()
	return out, nil
}

func runSim(sp *spec, cfg *runCfg) (*result, error) {
	res := newResult(sp.name)
	keys := cfg.keys(sp)
	ix := newModel(keys, 0, sp.valueSize, cfg.seed).preloadIndex()
	pairs := newModel(keys, 0, sp.valueSize, cfg.seed).pairs(ix)

	// Set-up (host time): build the machine, bulk-load, create the tree.
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		mc, err := newSimMachine(cfg.seed, pairs, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		mc.stop()
		debug.FreeOSMemory()
	}
	res.setN("setup_s", medianOf(setups), len(setups))

	plain, err := simOnce(sp, cfg, newModel(keys, 0, sp.valueSize, cfg.seed), pairs, nil)
	if err != nil {
		return nil, err
	}
	out := plain
	if cfg.trace {
		// The traced run repeats the same seed: virtual time must not
		// notice the tracing, so the overhead reads exactly 0.
		tr := &tracer{}
		if out, err = simOnce(sp, cfg, newModel(keys, 0, sp.valueSize, cfg.seed), pairs, tr); err != nil {
			return nil, err
		}
		res.set("bench.trace_overhead_pct", 100*(1-float64(out.ops)/float64(plain.ops)))
		if cfg.traceOut != "" {
			if err := tr.write(cfg.traceOut, map[string]any{"workload": sp.name, "seed": cfg.seed, "clock": "virtual ns"}); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			res.note("spans written to %s", cfg.traceOut)
		}
		res.note("%s", tr.selfNote())
	}
	res.Attempted, res.Failed = out.done+out.checked, out.failed+out.badKeys
	res.note("sweep: %d live keys compared, %d wrong", out.checked, out.badKeys)

	ops := float64(out.ops)
	busy := out.cpu.Total() - out.idleSpin // Table II counts attributed work, not the wait loop
	res.setN("ops_per_s", ops/out.loadedSecs, int(out.ops))
	res.setN("lat_p50_us", out.unloaded.median()/1e3, len(out.unloaded))
	res.setN("cpu_us_per_op", float64(busy.Nanoseconds())/1e3/ops, int(out.ops))
	res.setN("dev_ios_per_op", float64(out.dev.cmds())/ops, int(out.ops))
	res.setN("write_amp", float64(out.dev.WriteBytes)/float64(out.userBytes), int(out.ops))
	res.set("space_amp", float64(out.distinct)*float64(out.blockSize)/(float64(out.live)*float64(8+sp.valueSize)))
	res.set("rss_peak_mb", peakRSSMB())
	if !cfg.trace {
		return res, nil
	}

	setDeviceMetrics(res, out.dev, ops, float64(out.userBytes), out.timings)
	res.set("probe.abs_err_p50_us", float64(out.absErrP50.Nanoseconds())/1e3)
	res.set("probe.bias_us", float64(out.bias.Nanoseconds())/1e3)
	res.set("latch.waits_per_op", float64(out.latchWaits)/ops)
	res.set("buffer.hit_rate", out.hitRate)
	res.set("patree.admit_waits_per_op", float64(out.admitWaits)/ops)
	res.setN("patree.load_p99_us", out.loadLat.sorted().tail()/1e3, len(out.loadLat))
	total := float64(busy)
	other := out.cpu.Get(metrics.CatOther) - out.idleSpin
	res.set("core.cpu_real_work_share", ratio(float64(out.cpu.Get(metrics.CatRealWork)), total))
	res.set("core.cpu_sched_share", ratio(float64(out.cpu.Get(metrics.CatSched)), total))
	res.set("core.cpu_nvme_share", ratio(float64(out.cpu.Get(metrics.CatNVMe)), total))
	res.set("core.cpu_sync_share", ratio(float64(out.cpu.Get(metrics.CatSync)), total))
	res.set("core.cpu_other_share", ratio(float64(other), total))
	n := len(out.unloaded)
	res.setN("core.inbox_mean_us", out.stages[metrics.StageInbox]/1e3, n)
	res.setN("core.queue_wait_mean_us", out.stages[metrics.StageQueueWait]/1e3, n)
	res.set("core.latch_wait_mean_us", out.latchWaitNs/1e3)
	res.setN("core.io_wait_mean_us", out.stages[metrics.StageIOWait]/1e3, n)
	res.setN("core.deliver_mean_us", out.stages[metrics.StageDeliver]/1e3, n)
	res.setN("core.total_mean_us", out.stages[metrics.StageTotal]/1e3, n)
	res.set("sim.host_us_per_op", float64(out.hostCPU.Nanoseconds())/1e3/ops)
	res.set("simos.ctx_switches_per_op", float64(out.ctxSwitch)/ops)
	res.set("simos.busy_cores", out.busyCores)
	setRuntimeMetrics(res, out.mem, ops)
	res.setN("bench.unloaded_p99_us", out.unloaded.tail()/1e3, n)
	res.set("bench.steady", 1) // one window; the schedule is exact, not sampled
	isolated(res, cfg.isoIters)
	return res, nil
}
