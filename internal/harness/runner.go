// Package harness builds, runs and measures the experiments of the
// paper's evaluation section. Each figure/table has a driver in
// figures.go; this file contains the shared machinery: preparing a
// simulated machine + device + preloaded tree, closed- and open-loop
// drivers for PA-Tree, and multi-threaded closed-loop drivers for the
// synchronous baselines.
package harness

import (
	"fmt"
	"time"

	"github.com/patree/patree/internal/baseline/blink"
	"github.com/patree/patree/internal/baseline/lcb"
	"github.com/patree/patree/internal/baseline/syncbtree"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/lsm"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/workload"
)

// CPUGHz converts CPU time to cycles for Table II (the paper's testbed
// runs at 2.3 GHz).
const CPUGHz = 2.3

// Scale bounds an experiment's size so the same drivers serve both the
// full `cmd/paexp` runs and the reduced `go test -bench` versions.
type Scale struct {
	// PreloadKeys is the initial tree size.
	PreloadKeys int
	// Warmup and Measure are the virtual-time phases; stats cover only
	// the measurement window.
	Warmup  time.Duration
	Measure time.Duration
	// Threads are the baseline thread counts swept in Figures 7/8.
	Threads []int
	// Concurrency is PA-Tree's closed-loop outstanding-operation count
	// (the paper's application threads all blocked on the index).
	Concurrency int
	// Seed drives everything.
	Seed uint64
}

// FullScale approximates the paper's runs (minutes of host time).
func FullScale() Scale {
	return Scale{
		PreloadKeys: 1 << 21,
		Warmup:      150 * time.Millisecond,
		Measure:     700 * time.Millisecond,
		Threads:     []int{1, 2, 4, 8, 16, 32, 64, 128},
		Concurrency: 64,
		Seed:        42,
	}
}

// BenchScale is small enough for `go test -bench` (seconds per figure).
func BenchScale() Scale {
	return Scale{
		PreloadKeys: 200_000,
		Warmup:      50 * time.Millisecond,
		Measure:     200 * time.Millisecond,
		Threads:     []int{1, 8, 32, 128},
		Concurrency: 64,
		Seed:        42,
	}
}

// RunStats is the measurement record every driver produces.
type RunStats struct {
	Label       string
	Throughput  float64 // index ops/s over the measurement window
	MeanLatency time.Duration
	P99Latency  time.Duration
	CPU         float64 // average busy cores (0..8)
	Breakdown   []float64
	CtxSwitches uint64
	IOPS        float64
	Outstanding float64 // avg outstanding I/Os
	CyclesPerOp float64 // thousands of cycles
	Ops         uint64
	LatchWaits  uint64
	Probes      uint64
	// ReaderServed / ReaderFallback count point lookups answered by (or
	// declined by) the optimistic concurrent-read path during the
	// measurement window. Only the read-heavy driver populates them; both
	// stay 0 for pipeline-only runs.
	ReaderServed   uint64
	ReaderFallback uint64
	// WALBytesPerUserByte is journal block bytes written (rewrites too)
	// per key+value byte of the window's updates, DevCmdsPerOp the read
	// and write commands per completed op. RunPATree fills them.
	WALBytesPerUserByte float64
	DevCmdsPerOp        float64
}

// machine bundles one simulated testbed.
type machine struct {
	eng *sim.Engine
	os  *simos.Sched
	dev *nvme.SimDevice
}

func newMachine(seed uint64, devCfg nvme.SimConfig) *machine {
	eng := sim.NewEngine()
	devCfg.Seed = seed ^ 0xdead
	return &machine{
		eng: eng,
		os:  simos.New(eng, simos.Config{}),
		dev: nvme.NewSimDevice(eng, devCfg),
	}
}

// resetAt schedules the measurement-window start: zero every statistic at
// the (absolute) warmup boundary.
func (m *machine) resetAt(at sim.Time, extra func()) {
	m.eng.At(at, func() {
		m.os.ResetStats()
		m.dev.ResetStats()
		if extra != nil {
			extra()
		}
	})
}

// finish computes the machine-level stats over the measurement window.
// idleSpin is busy-wait time to exclude from the cycle attribution
// (Figure 9 / Table II count attributed work, not wait loops).
func (m *machine) finish(rs *RunStats, measure time.Duration, cpus []*metrics.CPUAccount, ops uint64, lat *metrics.Histogram, idleSpin time.Duration) {
	secs := measure.Seconds()
	rs.Ops = ops
	rs.Throughput = float64(ops) / secs
	if lat != nil && lat.Count() > 0 {
		rs.MeanLatency = lat.Mean()
		rs.P99Latency = lat.Percentile(99)
	}
	rs.CPU = m.os.CPUConsumption()
	rs.CtxSwitches = m.os.ContextSwitches()
	dst := m.dev.Stats()
	rs.IOPS = float64(dst.CompletedReads+dst.CompletedWrites) / secs
	rs.Outstanding = dst.AvgOutstanding
	rs.attributeCPU(cpus, ops, idleSpin)
}

// attributeCPU fills the per-category CPU breakdown and cycles per
// operation from the workers' accounts, leaving idleSpin out.
func (rs *RunStats) attributeCPU(cpus []*metrics.CPUAccount, ops uint64, idleSpin time.Duration) {
	var total metrics.CPUAccount
	for _, a := range cpus {
		total.Merge(a)
	}
	if idleSpin > 0 {
		other := total.Get(metrics.CatOther) - idleSpin
		if other < 0 {
			other = 0
		}
		adj := metrics.CPUAccount{}
		for _, c := range metrics.Categories() {
			if c == metrics.CatOther {
				adj.Charge(c, other)
			} else {
				adj.Charge(c, total.Get(c))
			}
		}
		total = adj
	}
	rs.Breakdown = total.Fractions()
	if ops > 0 {
		rs.CyclesPerOp = total.Total().Seconds() * CPUGHz * 1e9 / float64(ops) / 1e3
	}
}

// PAConfig configures a PA-Tree run.
type PAConfig struct {
	Scale  Scale
	Tree   core.Config
	Gen    workload.Generator
	Device nvme.SimConfig
	// ArrivalRate > 0 switches to an open-loop driver with Poisson
	// arrivals at that many ops/s (Figure 13); otherwise the driver is
	// closed-loop with Scale.Concurrency outstanding operations.
	ArrivalRate float64
	// SyncEvery issues a Sync() after this many updates (weak
	// persistence's group commit; 0 disables).
	SyncEvery int
}

// toOp converts a workload op into a PA-Tree operation.
func toOp(w workload.Op, done func(*core.Op)) *core.Op {
	switch w.Kind {
	case workload.OpSearch:
		return core.NewSearch(w.Key, done)
	case workload.OpInsert:
		return core.NewInsert(w.Key, w.Value, done)
	case workload.OpUpdate:
		return core.NewInsert(w.Key, w.Value, done) // paper updates overwrite
	case workload.OpDelete:
		return core.NewDelete(w.Key, done)
	case workload.OpRange:
		return core.NewRange(w.Key, w.EndKey, w.Limit, done)
	default:
		panic("harness: unknown op kind")
	}
}

// RunPATree executes one PA-Tree configuration and reports its stats.
func RunPATree(cfg PAConfig) RunStats {
	m := newMachine(cfg.Scale.Seed, cfg.Device)
	meta, err := core.BulkLoad(m.dev, cfg.Gen.Preload(), 0.7)
	if err != nil {
		panic(err)
	}
	var tree *core.Tree
	worker := m.os.Spawn("patree", func(*simos.Thread) { tree.Run() })
	tree, err = core.New(m.dev, cfg.Tree, core.SimEnv{T: worker}, meta)
	if err != nil {
		panic(err)
	}
	var pollerCPU *metrics.CPUAccount
	if cfg.Tree.Poller != core.PollerInline {
		pol := m.os.Spawn("poller", func(th *simos.Thread) {
			var p = tree.PollerPolicy()
			tree.RunPoller(core.SimEnv{T: th}, p)
		})
		pollerCPU = &pol.CPU
	}

	measuredOps, userBytes := uint64(0), uint64(0)
	inWindow := false
	stopping := false
	updates := 0
	var admit func()
	onDone := func(*core.Op) {
		if inWindow {
			measuredOps++
		}
		if cfg.ArrivalRate <= 0 && !stopping {
			admit()
		}
	}
	admit = func() {
		w := cfg.Gen.Next()
		if w.Kind != workload.OpSearch && w.Kind != workload.OpRange {
			updates++
			if inWindow {
				userBytes += uint64(8 + len(w.Value))
			}
			if cfg.SyncEvery > 0 && updates%cfg.SyncEvery == 0 {
				tree.Admit(core.NewSync(nil))
			}
		}
		tree.Admit(toOp(w, onDone))
	}
	base := m.eng.Now()
	if cfg.ArrivalRate > 0 {
		rng := sim.NewRNG(cfg.Scale.Seed ^ 0xa11)
		mean := time.Duration(float64(time.Second) / cfg.ArrivalRate)
		var arrive func()
		arrive = func() {
			admit()
			m.eng.After(rng.Exp(mean), arrive)
		}
		m.eng.After(rng.Exp(mean), arrive)
	} else {
		conc := cfg.Scale.Concurrency
		if conc <= 0 {
			conc = 64
		}
		m.eng.After(0, func() {
			for i := 0; i < conc; i++ {
				admit()
			}
		})
	}
	m.resetAt(base.Add(cfg.Scale.Warmup), func() {
		tree.ResetStats()
		worker.CPU.Reset()
		if pollerCPU != nil {
			pollerCPU.Reset()
		}
		inWindow = true
	})
	m.eng.RunUntil(base.Add(cfg.Scale.Warmup + cfg.Scale.Measure))

	st := tree.StatsSnapshot()
	rs := RunStats{Label: "PA-Tree"}
	// The tree's own live accounting (the same account Metrics exposes):
	// on SimEnv this is the worker thread's virtual-CPU ledger.
	cpus := []*metrics.CPUAccount{tree.CPUSnapshot()}
	if pollerCPU != nil {
		cpus = append(cpus, pollerCPU)
	}
	m.finish(&rs, cfg.Scale.Measure, cpus, measuredOps, st.Latency, st.IdleSpinTime)
	rs.LatchWaits = tree.LatchWaits()
	rs.Probes = st.Probes
	if userBytes > 0 {
		rs.WALBytesPerUserByte = float64(st.JournalBlockWrites*storage.PageSize) / float64(userBytes)
	}
	if measuredOps > 0 {
		rs.DevCmdsPerOp = float64(st.ReadsIssued+st.WritesIssued) / float64(measuredOps)
	}
	stopping = true
	tree.Stop()
	m.eng.RunFor(2 * time.Second)
	return rs
}

// ShardedPAConfig configures a sharded PA-Tree run: N independent
// working threads over disjoint partitions of ONE simulated device, so
// the controller-interference accounting stays shared across shards.
type ShardedPAConfig struct {
	Scale  Scale
	Shards int
	// MkTree builds one shard's tree configuration. It is called once
	// per shard because sched.Policy instances are stateful — every
	// worker needs its own.
	MkTree func() core.Config
	Gen    workload.Generator
	Device nvme.SimConfig
	// SyncEvery issues a Sync on every shard after this many updates
	// (0 disables).
	SyncEvery int
}

// RunShardedPATree executes one sharded configuration and reports the
// merged stats: the one-device case of RunMultiDevice, which documents
// the layout and the driver. Shards <= 1 places the single tree directly
// on the device — exactly the RunPATree layout, so same-seed runs produce
// identical traces.
func RunShardedPATree(cfg ShardedPAConfig) RunStats {
	rs := RunMultiDevice(MultiDevConfig{
		Scale:     cfg.Scale,
		Shards:    cfg.Shards,
		Devices:   1,
		MkTree:    cfg.MkTree,
		Gen:       cfg.Gen,
		Device:    cfg.Device,
		SyncEvery: cfg.SyncEvery,
	}).RunStats
	rs.Label = fmt.Sprintf("PA-Tree x%d", max(cfg.Shards, 1))
	return rs
}

// SyncKind selects a synchronous baseline engine.
type SyncKind int

// Baseline engines.
const (
	KindShared SyncKind = iota
	KindDedicated
	KindBlink
	KindLCB
	KindLSM
)

// String names the engine as in the paper.
func (k SyncKind) String() string {
	switch k {
	case KindShared:
		return "shared"
	case KindDedicated:
		return "dedicated"
	case KindBlink:
		return "Blink-Tree"
	case KindLCB:
		return "LCB-Tree"
	case KindLSM:
		return "LSM (LevelDB)"
	default:
		return fmt.Sprintf("SyncKind(%d)", int(k))
	}
}

// SyncConfig configures a baseline run.
type SyncConfig struct {
	Scale       Scale
	Kind        SyncKind
	Threads     int
	Gen         workload.Generator
	Device      nvme.SimConfig
	Persistence syncbtree.Persistence
	CachePages  int
	SyncEvery   int
}

// syncStore adapts the baseline engines to one op interface.
type syncStore interface {
	do(th *simos.Thread, op workload.Op) error
	sync(th *simos.Thread) error
}

type btreeStore struct{ t *syncbtree.Tree }

func (s btreeStore) do(th *simos.Thread, op workload.Op) error {
	var err error
	switch op.Kind {
	case workload.OpSearch:
		_, _, err = s.t.Search(th, op.Key)
	case workload.OpInsert, workload.OpUpdate:
		_, err = s.t.Insert(th, op.Key, op.Value)
	case workload.OpDelete:
		_, err = s.t.Delete(th, op.Key)
	case workload.OpRange:
		_, err = s.t.RangeScan(th, op.Key, op.EndKey, op.Limit)
	}
	return err
}
func (s btreeStore) sync(th *simos.Thread) error { return s.t.Sync(th) }

type blinkStore struct{ t *blink.Tree }

func (s blinkStore) do(th *simos.Thread, op workload.Op) error {
	var err error
	switch op.Kind {
	case workload.OpSearch:
		_, _, err = s.t.Search(th, op.Key)
	case workload.OpInsert, workload.OpUpdate:
		_, err = s.t.Insert(th, op.Key, op.Value)
	case workload.OpDelete:
		_, err = s.t.Delete(th, op.Key)
	case workload.OpRange:
		_, err = s.t.RangeScan(th, op.Key, op.EndKey, op.Limit)
	}
	return err
}
func (s blinkStore) sync(th *simos.Thread) error { return s.t.Sync(th) }

type lcbStore struct{ t *lcb.Tree }

func (s lcbStore) do(th *simos.Thread, op workload.Op) error {
	var err error
	switch op.Kind {
	case workload.OpSearch:
		_, _, err = s.t.Search(th, op.Key)
	case workload.OpInsert, workload.OpUpdate:
		_, err = s.t.Insert(th, op.Key, op.Value)
	case workload.OpDelete:
		_, err = s.t.Delete(th, op.Key)
	case workload.OpRange:
		_, err = s.t.RangeScan(th, op.Key, op.EndKey, op.Limit)
	}
	return err
}
func (s lcbStore) sync(th *simos.Thread) error { return s.t.Sync(th) }

type lsmStore struct{ t *lsm.Tree }

func (s lsmStore) do(th *simos.Thread, op workload.Op) error {
	var err error
	switch op.Kind {
	case workload.OpSearch:
		_, _, err = s.t.Get(th, op.Key)
	case workload.OpInsert, workload.OpUpdate:
		err = s.t.Put(th, op.Key, op.Value)
	case workload.OpDelete:
		err = s.t.Delete(th, op.Key)
	case workload.OpRange:
		_, err = s.t.RangeScan(th, op.Key, op.EndKey, op.Limit)
	}
	return err
}
func (s lsmStore) sync(th *simos.Thread) error { return s.t.Sync(th) }

// RunSync executes one baseline configuration with N worker threads in a
// closed loop and reports its stats.
func RunSync(cfg SyncConfig) RunStats {
	m := newMachine(cfg.Scale.Seed, cfg.Device)
	preload := cfg.Gen.Preload()

	var io syncbtree.IO
	var shared *syncbtree.Shared
	if cfg.Kind == KindShared {
		shared = syncbtree.NewShared(m.dev, m.os)
		io = shared
	} else {
		io = syncbtree.NewDedicated(m.dev, m.os)
	}

	var store syncStore
	treeCfg := syncbtree.Config{Persistence: cfg.Persistence, CachePages: cfg.CachePages}
	switch cfg.Kind {
	case KindShared, KindDedicated:
		meta, err := core.BulkLoad(m.dev, preload, 0.7)
		if err != nil {
			panic(err)
		}
		store = btreeStore{t: syncbtree.NewTree(m.os, io, treeCfg, meta)}
	case KindBlink:
		// Blink uses its own node format: load through its insert path
		// (buffered, then synced) before the timed run.
		var bt *blink.Tree
		m.os.Spawn("loader", func(th *simos.Thread) {
			t2, err := blink.Format(th, m.os, io, blink.Config{
				Persistence: syncbtree.Weak, CachePages: 1 << 20})
			if err != nil {
				panic(err)
			}
			for _, kv := range preload {
				if _, err := t2.Insert(th, kv.Key, kv.Value); err != nil {
					panic(err)
				}
			}
			if err := t2.Sync(th); err != nil {
				panic(err)
			}
			bt = t2
		})
		m.eng.Run() // drive the loader to completion
		bt.SetPersistence(cfg.Persistence, cfg.CachePages)
		store = blinkStore{t: bt}
	case KindLCB:
		meta, err := core.BulkLoad(m.dev, preload, 0.7)
		if err != nil {
			panic(err)
		}
		store = lcbStore{t: lcb.New(m.os, io, m.dev, lcb.Config{
			Persistence: cfg.Persistence, CachePages: cfg.CachePages}, meta)}
	case KindLSM:
		tr := lsm.New(m.os, io, m.dev, lsm.Config{
			Persistence: cfg.Persistence, CachePages: cfg.CachePages, Seed: cfg.Scale.Seed})
		// LSM cannot use the B+ tree bulk image; load through its write
		// path with weak persistence, then flip the mode.
		m.os.Spawn("loader", func(th *simos.Thread) {
			save := tr.SetPersistence(syncbtree.Weak)
			for _, kv := range preload {
				if err := tr.Put(th, kv.Key, kv.Value); err != nil {
					panic(err)
				}
			}
			tr.Sync(th)
			tr.SetPersistence(save)
		})
		m.eng.Run()
		store = lsmStore{t: tr}
	}

	lat := metrics.NewHistogram()
	var measuredOps uint64
	inWindow := false
	updates := 0
	base := m.eng.Now()
	end := base.Add(cfg.Scale.Warmup + cfg.Scale.Measure)
	var cpus []*metrics.CPUAccount
	for w := 0; w < cfg.Threads; w++ {
		w := w
		th := m.os.Spawn(fmt.Sprintf("worker%d", w), func(th *simos.Thread) {
			for th.Now() < end {
				op := cfg.Gen.Next()
				isUpdate := op.Kind != workload.OpSearch && op.Kind != workload.OpRange
				start := th.Now()
				if err := store.do(th, op); err != nil {
					panic(fmt.Sprintf("baseline op failed: %v", err))
				}
				if inWindow {
					lat.Record(time.Duration(th.Now() - start))
					measuredOps++
				}
				if isUpdate {
					updates++
					if cfg.SyncEvery > 0 && updates%cfg.SyncEvery == 0 {
						store.sync(th)
					}
				}
			}
		})
		cpus = append(cpus, &th.CPU)
	}
	m.resetAt(base.Add(cfg.Scale.Warmup), func() {
		for _, a := range cpus {
			a.Reset()
		}
		inWindow = true
	})
	m.eng.RunUntil(end)
	rs := RunStats{Label: fmt.Sprintf("%s(%d)", cfg.Kind, cfg.Threads)}
	m.finish(&rs, cfg.Scale.Measure, cpus, measuredOps, lat, 0)
	if shared != nil {
		shared.Stop()
	}
	m.eng.RunFor(5 * time.Second) // let workers drain
	return rs
}
