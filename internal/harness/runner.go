// Package harness builds, runs and measures the experiments of the
// paper's evaluation section. Each figure/table has a driver in
// figures.go, listed in paexp's order by Experiments; this file contains
// the shared machinery: a simulated machine of one or more devices, the
// one PA-Tree driver (any shard × device topology, closed or open loop),
// and the multi-threaded closed-loop driver for the synchronous
// baselines.
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
	// WALBytesPerUserByte is journal block bytes written (rewrites too)
	// per key+value byte of the window's updates, DevCmdsPerOp the read
	// and write commands per completed op, both summed over the shards.
	WALBytesPerUserByte float64
	DevCmdsPerOp        float64
	// ShardQueueP99 is each shard's ready-queue-wait p99 over the
	// measurement window (all op classes merged).
	ShardQueueP99 []time.Duration
}

// machine bundles one simulated testbed: one scheduler and one or more
// devices on one engine.
type machine struct {
	eng  *sim.Engine
	os   *simos.Sched
	devs []*nvme.SimDevice
}

// newMachine builds a machine with the given number of devices, each
// from the devCfg template with a seed derived per device.
func newMachine(seed uint64, devCfg nvme.SimConfig, devices int) *machine {
	eng := sim.NewEngine()
	m := &machine{eng: eng, os: simos.New(eng, simos.Config{})}
	for d := 0; d < devices; d++ {
		devCfg.Seed = seed ^ 0xdead ^ uint64(d)*0x9e3779b97f4a7c15
		m.devs = append(m.devs, nvme.NewSimDevice(eng, devCfg))
	}
	return m
}

// resetAt schedules the measurement-window start: zero every statistic at
// the (absolute) warmup boundary.
func (m *machine) resetAt(at sim.Time, extra func()) {
	m.eng.At(at, func() {
		m.os.ResetStats()
		for _, d := range m.devs {
			d.ResetStats()
		}
		extra()
	})
}

// finish computes the machine-level stats over the measurement window.
// idleSpin is busy-wait time to exclude from the cycle attribution
// (Figure 9 / Table II count attributed work, not wait loops).
func (m *machine) finish(rs *RunStats, measure time.Duration, cpus []*metrics.CPUAccount, ops uint64, lat *metrics.Histogram, idleSpin time.Duration) {
	secs := measure.Seconds()
	rs.Ops = ops
	rs.Throughput = float64(ops) / secs
	if lat.Count() > 0 {
		rs.MeanLatency = lat.Mean()
		rs.P99Latency = lat.Percentile(99)
	}
	rs.CPU = m.os.CPUConsumption()
	rs.CtxSwitches = m.os.ContextSwitches()
	var completed uint64
	for _, d := range m.devs {
		dst := d.Stats()
		completed += dst.CompletedReads + dst.CompletedWrites
		rs.Outstanding += dst.AvgOutstanding
	}
	rs.IOPS = float64(completed) / secs
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

// PAConfig configures a PA-Tree run: Shards single-threaded trees over
// Devices simulated devices, the keyspace hash-partitioned by
// core.ShardOf and each shard bulk-loaded onto its own nvme.Partition of
// its placed device. The zero topology is the paper's testbed: one tree
// on (a whole-device partition of) one device.
type PAConfig struct {
	Scale Scale
	// Shards and Devices size the topology; 0 means 1. Every device
	// must host at least one shard.
	Shards  int
	Devices int
	// MkTree builds one shard's tree configuration. It is called once per
	// shard because sched.Policy instances are stateful: every worker
	// needs its own.
	MkTree func() core.Config
	Gen    workload.Generator
	// Device is the per-device SimConfig template (Seed is derived per
	// device).
	Device nvme.SimConfig
	// ArrivalRate > 0 switches to an open-loop driver with Poisson
	// arrivals at that many ops/s in total (Figure 13); otherwise the
	// driver is closed-loop with Scale.Concurrency outstanding operations
	// per shard.
	ArrivalRate float64
	// SyncEvery issues a Sync() on every shard after this many updates
	// (weak persistence's group commit; 0 disables).
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

// paShard is one shard of a RunPATree run and its driver-side state.
type paShard struct {
	tree   *core.Tree
	worker *simos.Thread
	poller *simos.Thread // nil when the tree polls inline
}

// RunPATree executes one PA-Tree configuration and reports the stats
// merged over its shards. Each op goes to its key's owning shard; range
// ops stay on the low key's shard (the swept workloads measure
// throughput, the embedder API does the real scatter-gather).
func RunPATree(cfg PAConfig) RunStats {
	n, nd := max(cfg.Shards, 1), max(cfg.Devices, 1)
	m := newMachine(cfg.Scale.Seed, cfg.Device, nd)
	devs := make([]nvme.Device, nd)
	for d, sd := range m.devs {
		devs[d] = sd
	}
	parts, err := nvme.ShardPartitions(devs, n)
	if err != nil {
		panic(err)
	}
	// Split the preload by owning shard; each part stays sorted.
	preload := make([][]core.KV, n)
	for _, kv := range cfg.Gen.Preload() {
		si := core.ShardOf(kv.Key, n)
		preload[si] = append(preload[si], kv)
	}
	shards := make([]*paShard, n)
	for i, part := range parts {
		meta, err := core.BulkLoad(part, preload[i], 0.7)
		if err != nil {
			panic(err)
		}
		sh := &paShard{}
		sh.worker = m.os.Spawn(fmt.Sprintf("patree-shard%d", i), func(*simos.Thread) { sh.tree.Run() })
		treeCfg := cfg.MkTree()
		sh.tree, err = core.New(part, treeCfg, core.SimEnv{T: sh.worker}, meta)
		if err != nil {
			panic(err)
		}
		if treeCfg.Poller != core.PollerInline {
			sh.poller = m.os.Spawn(fmt.Sprintf("poller%d", i), func(th *simos.Thread) {
				sh.tree.RunPoller(core.SimEnv{T: th}, sh.tree.PollerPolicy())
			})
		}
		shards[i] = sh
	}

	conc := cfg.Scale.Concurrency
	if conc <= 0 {
		conc = 64
	}
	closed := cfg.ArrivalRate <= 0
	var measuredOps, userBytes uint64
	inWindow, stopping := false, false
	updates := 0
	var admit func()
	done := func(*core.Op) {
		if inWindow {
			measuredOps++
		}
		if closed {
			admit()
		}
	}
	admit = func() {
		if stopping {
			return
		}
		w := cfg.Gen.Next()
		if w.Kind != workload.OpSearch && w.Kind != workload.OpRange {
			updates++
			if inWindow {
				userBytes += uint64(8 + len(w.Value))
			}
			if cfg.SyncEvery > 0 && updates%cfg.SyncEvery == 0 {
				for _, sh := range shards {
					sh.tree.Admit(core.NewSync(nil))
				}
			}
		}
		shards[core.ShardOf(w.Key, n)].tree.Admit(toOp(w, done))
	}

	base := m.eng.Now()
	if closed {
		m.eng.After(0, func() {
			for i := 0; i < conc*n; i++ {
				admit()
			}
		})
	} else {
		rng := sim.NewRNG(cfg.Scale.Seed ^ 0xa11)
		mean := time.Duration(float64(time.Second) / cfg.ArrivalRate)
		var arrive func()
		arrive = func() {
			if stopping {
				return
			}
			admit()
			m.eng.After(rng.Exp(mean), arrive)
		}
		m.eng.After(rng.Exp(mean), arrive)
	}
	m.resetAt(base.Add(cfg.Scale.Warmup), func() {
		for _, sh := range shards {
			sh.tree.ResetStats()
			sh.worker.CPU.Reset()
			if sh.poller != nil {
				sh.poller.CPU.Reset()
			}
		}
		inWindow = true
	})
	m.eng.RunUntil(base.Add(cfg.Scale.Warmup + cfg.Scale.Measure))

	label := "PA-Tree"
	if n > 1 {
		label += fmt.Sprintf(" x%d", n)
	}
	if nd > 1 {
		label += fmt.Sprintf("/%ddev", nd)
	}
	rs := RunStats{Label: label, ShardQueueP99: make([]time.Duration, n)}
	lat := metrics.NewHistogram()
	var cpus []*metrics.CPUAccount
	var idleSpin time.Duration
	var walBlocks, devCmds uint64
	for i, sh := range shards {
		st := sh.tree.StatsSnapshot()
		st.Stages.MergedInto(metrics.StageTotal, lat)
		idleSpin += st.IdleSpinTime
		// The tree's own live accounting (the same account Metrics
		// exposes): on SimEnv this is the worker thread's virtual-CPU ledger.
		cpus = append(cpus, sh.tree.CPUSnapshot())
		if sh.poller != nil {
			cpus = append(cpus, &sh.poller.CPU)
		}
		rs.LatchWaits += sh.tree.LatchWaits()
		rs.Probes += st.Probes
		walBlocks += st.JournalBlockWrites
		devCmds += st.ReadsIssued + st.WritesIssued
		qw := metrics.NewHistogram()
		if st.Stages != nil && st.Stages.MergedInto(metrics.StageQueueWait, qw) {
			rs.ShardQueueP99[i] = qw.Percentile(99)
		}
	}
	m.finish(&rs, cfg.Scale.Measure, cpus, measuredOps, lat, idleSpin)
	if userBytes > 0 {
		rs.WALBytesPerUserByte = float64(walBlocks*storage.PageSize) / float64(userBytes)
	}
	if measuredOps > 0 {
		rs.DevCmdsPerOp = float64(devCmds) / float64(measuredOps)
	}

	stopping = true
	for _, sh := range shards {
		sh.tree.Stop()
	}
	m.eng.RunFor(2 * time.Second)
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

// syncTree is the op surface every baseline shares: the syncbtree,
// Blink and LCB trees satisfy it directly, the LSM store through
// lsmTree.
type syncTree interface {
	Search(th *simos.Thread, key uint64) ([]byte, bool, error)
	Insert(th *simos.Thread, key uint64, value []byte) (bool, error)
	Delete(th *simos.Thread, key uint64) (bool, error)
	RangeScan(th *simos.Thread, lo, hi uint64, limit int) ([]core.KV, error)
	Sync(th *simos.Thread) error
}

// lsmTree adapts the LSM store, whose Get/Put/Delete report no found
// flag.
type lsmTree struct{ *lsm.Tree }

func (t lsmTree) Search(th *simos.Thread, key uint64) ([]byte, bool, error) {
	return t.Get(th, key)
}
func (t lsmTree) Insert(th *simos.Thread, key uint64, value []byte) (bool, error) {
	return false, t.Put(th, key, value)
}
func (t lsmTree) Delete(th *simos.Thread, key uint64) (bool, error) {
	return false, t.Tree.Delete(th, key)
}

// doSync runs one workload op against a baseline.
func doSync(t syncTree, th *simos.Thread, op workload.Op) error {
	var err error
	switch op.Kind {
	case workload.OpSearch:
		_, _, err = t.Search(th, op.Key)
	case workload.OpInsert, workload.OpUpdate:
		_, err = t.Insert(th, op.Key, op.Value)
	case workload.OpDelete:
		_, err = t.Delete(th, op.Key)
	case workload.OpRange:
		_, err = t.RangeScan(th, op.Key, op.EndKey, op.Limit)
	}
	return err
}

// RunSync executes one baseline configuration with N worker threads in a
// closed loop and reports its stats.
func RunSync(cfg SyncConfig) RunStats {
	m := newMachine(cfg.Scale.Seed, cfg.Device, 1)
	dev := m.devs[0]
	preload := cfg.Gen.Preload()

	var io syncbtree.IO
	var shared *syncbtree.Shared
	if cfg.Kind == KindShared {
		shared = syncbtree.NewShared(dev, m.os)
		io = shared
	} else {
		io = syncbtree.NewDedicated(dev, m.os)
	}

	var store syncTree
	treeCfg := syncbtree.Config{Persistence: cfg.Persistence, CachePages: cfg.CachePages}
	switch cfg.Kind {
	case KindShared, KindDedicated:
		meta, err := core.BulkLoad(dev, preload, 0.7)
		if err != nil {
			panic(err)
		}
		store = syncbtree.NewTree(m.os, io, treeCfg, meta)
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
		store = bt
	case KindLCB:
		meta, err := core.BulkLoad(dev, preload, 0.7)
		if err != nil {
			panic(err)
		}
		store = lcb.New(m.os, io, dev, lcb.Config{
			Persistence: cfg.Persistence, CachePages: cfg.CachePages}, meta)
	case KindLSM:
		tr := lsm.New(m.os, io, dev, lsm.Config{
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
		store = lsmTree{tr}
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
				if err := doSync(store, th, op); err != nil {
					panic(fmt.Sprintf("baseline op failed: %v", err))
				}
				if inWindow {
					lat.Record(time.Duration(th.Now() - start))
					measuredOps++
				}
				if isUpdate {
					updates++
					if cfg.SyncEvery > 0 && updates%cfg.SyncEvery == 0 {
						store.Sync(th)
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
