package harness

import (
	"fmt"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/workload"
)

// MultiDevConfig configures a multi-device sharded PA-Tree run: N
// single-threaded workers over M simulated devices, each shard on an
// nvme.Partition of its placed device, so shards on different devices
// stop sharing controller-interference accounting.
type MultiDevConfig struct {
	Scale  Scale
	Shards int
	// Devices is the simulated device count (M). Each device gets its
	// own SimDevice built from the Device template with a per-device
	// seed; device 0's seed matches the single-device harness
	// (RunPATree), which a {1, 1} topology reproduces exactly.
	Devices int
	// Placement maps shard index -> device index. Nil means round-robin
	// (shard i on device i % M), the same default the embedder uses.
	Placement []int
	// MkTree builds one shard's tree configuration (called once per
	// shard — sched.Policy instances are stateful).
	MkTree func() core.Config
	Gen    workload.Generator
	// Device is the per-device SimConfig template (Seed is overridden).
	Device nvme.SimConfig
	// SyncEvery issues a Sync on every shard after this many updates
	// (0 disables).
	SyncEvery int
	// Weighting turns on the driver-side hot-shard governor: the same
	// AIMD law the embedder's Options.AdmissionWeighting uses, fed by
	// the driver's per-shard in-flight counts and each tree's
	// queue-wait EWMA. Ops routed to a throttled shard are parked and
	// released as the window allows. Under uniform traffic no window
	// is ever imposed, so runs are byte-identical with Weighting off.
	Weighting bool
}

// MultiDevStats extends RunStats with the topology-specific signals the
// skew battery asserts on.
type MultiDevStats struct {
	RunStats
	Devices int
	// ShardQueueP99 is each shard's ready-queue-wait p99 over the
	// measurement window (all op classes merged).
	ShardQueueP99 []time.Duration
	// Throttled counts driver parks: ops held back from a shard whose
	// governor window was full (measurement window only).
	Throttled uint64
}

// mdAdaptEvery is the governor cadence: re-evaluate windows after this
// many completions.
const mdAdaptEvery = 256

// multiDevSeed derives device d's simulation seed. Device 0 matches
// newMachine's derivation so single-device topologies replay the
// existing harness byte for byte.
func multiDevSeed(seed uint64, d int) uint64 {
	return seed ^ 0xdead ^ uint64(d)*0x9e3779b97f4a7c15
}

// RunMultiDevice executes one multi-device sharded configuration and
// reports the merged stats. The keyspace is hash-partitioned by
// core.ShardOf; the preload is split among the shards' partitions and
// each is bulk-loaded independently; the closed-loop driver keeps
// Scale.Concurrency operations outstanding per shard, routing each to
// its key's owner. Devices == 1 is the single-device sharded run
// (RunShardedPATree), and with Shards == 1 as well the tree sits on the
// raw device exactly as in RunPATree (TestShardsOneByteCompat).
func RunMultiDevice(cfg MultiDevConfig) MultiDevStats {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	m := cfg.Devices
	if m < 1 {
		m = 1
	}
	if n < m {
		panic(fmt.Sprintf("harness: %d shards cannot cover %d devices", n, m))
	}

	eng := sim.NewEngine()
	osched := simos.New(eng, simos.Config{})
	devs := make([]*nvme.SimDevice, m)
	devIfc := make([]nvme.Device, m)
	for d := 0; d < m; d++ {
		devCfg := cfg.Device
		devCfg.Seed = multiDevSeed(cfg.Scale.Seed, d)
		devs[d] = nvme.NewSimDevice(eng, devCfg)
		devIfc[d] = devs[d]
	}

	// Carve one partition per shard. The single-shard single-device
	// topology places the tree on the raw device, mirroring RunPATree
	// exactly.
	shardDev := make([]nvme.Device, n)
	if n == 1 && m == 1 {
		shardDev[0] = devs[0]
	} else {
		parts, err := nvme.ShardPartitions(devIfc, n, cfg.Placement)
		if err != nil {
			panic(err)
		}
		for i, p := range parts {
			shardDev[i] = p
		}
	}

	// Split the preload by owning shard; slices stay sorted because
	// splitting preserves order.
	preload := cfg.Gen.Preload()
	parts := make([][]core.KV, n)
	for _, kv := range preload {
		si := core.ShardOf(kv.Key, n)
		parts[si] = append(parts[si], kv)
	}

	trees := make([]*core.Tree, n)
	workers := make([]*simos.Thread, n)
	for i := 0; i < n; i++ {
		meta, err := core.BulkLoad(shardDev[i].(core.ImageWriter), parts[i], 0.7)
		if err != nil {
			panic(err)
		}
		i := i
		workers[i] = osched.Spawn(fmt.Sprintf("patree-shard%d", i), func(*simos.Thread) { trees[i].Run() })
		trees[i], err = core.New(shardDev[i], cfg.MkTree(), core.SimEnv{T: workers[i]}, meta)
		if err != nil {
			panic(err)
		}
	}

	conc := cfg.Scale.Concurrency
	if conc <= 0 {
		conc = 64
	}
	var gov *core.Governor
	if cfg.Weighting {
		gov = core.NewGovernor(n, conc)
	}

	measuredOps := uint64(0)
	throttled := uint64(0)
	completions := uint64(0)
	inWindow := false
	stopping := false
	updates := 0
	inflight := make([]int, n)
	parked := make([][]*core.Op, n)
	waits := make([]time.Duration, n)

	adapt := func() {
		for i, t := range trees {
			waits[i] = t.QueueWaitEWMA()
		}
		gov.Adapt(inflight, waits)
	}
	// releaseOne admits the oldest parked op of shard si if its window
	// now has room.
	releaseOne := func(si int) {
		if len(parked[si]) == 0 || gov.Throttled(si, inflight[si]) {
			return
		}
		op := parked[si][0]
		parked[si] = parked[si][1:]
		inflight[si]++
		trees[si].Admit(op)
	}
	releaseAll := func() {
		for si := 0; si < n; si++ {
			for len(parked[si]) > 0 && !gov.Throttled(si, inflight[si]) {
				releaseOne(si)
			}
		}
	}

	var refill func()
	doneFns := make([]func(*core.Op), n)
	for si := 0; si < n; si++ {
		si := si
		doneFns[si] = func(*core.Op) {
			inflight[si]--
			if inWindow {
				measuredOps++
			}
			completions++
			if gov != nil {
				if completions%mdAdaptEvery == 0 {
					adapt()
					releaseAll()
				} else {
					releaseOne(si)
				}
			}
			if !stopping {
				refill()
			}
		}
	}
	refill = func() {
		w := cfg.Gen.Next()
		if w.Kind != workload.OpSearch && w.Kind != workload.OpRange {
			updates++
			if cfg.SyncEvery > 0 && updates%cfg.SyncEvery == 0 {
				for _, t := range trees {
					t.Admit(core.NewSync(nil))
				}
			}
		}
		// Range ops stay on the low key's shard: the sharded harness
		// measures throughput scaling, and the swept workloads are
		// point-op mixes (the embedder API does the real scatter-gather).
		si := core.ShardOf(w.Key, n)
		op := toOp(w, doneFns[si])
		if gov != nil && gov.Throttled(si, inflight[si]) {
			parked[si] = append(parked[si], op)
			if inWindow {
				throttled++
			}
			return
		}
		inflight[si]++
		trees[si].Admit(op)
	}

	base := eng.Now()
	eng.After(0, func() {
		for i := 0; i < conc*n; i++ {
			refill()
		}
	})
	eng.At(base.Add(cfg.Scale.Warmup), func() {
		osched.ResetStats()
		for _, d := range devs {
			d.ResetStats()
		}
		for i, t := range trees {
			t.ResetStats()
			workers[i].CPU.Reset()
		}
		throttled = 0
		inWindow = true
	})
	eng.RunUntil(base.Add(cfg.Scale.Warmup + cfg.Scale.Measure))

	out := MultiDevStats{Devices: m}
	out.Label = fmt.Sprintf("PA-Tree x%d/%ddev", n, m)
	lat := metrics.NewHistogram()
	var cpus []*metrics.CPUAccount
	var idleSpin time.Duration
	out.ShardQueueP99 = make([]time.Duration, n)
	for i, t := range trees {
		st := t.StatsSnapshot()
		lat.Merge(st.Latency)
		idleSpin += st.IdleSpinTime
		cpus = append(cpus, t.CPUSnapshot())
		out.LatchWaits += t.LatchWaits()
		out.Probes += st.Probes
		qw := metrics.NewHistogram()
		if st.Stages != nil && st.Stages.MergedInto(metrics.StageQueueWait, qw) {
			out.ShardQueueP99[i] = qw.Percentile(99)
		}
	}

	secs := cfg.Scale.Measure.Seconds()
	out.Ops = measuredOps
	out.Throughput = float64(measuredOps) / secs
	if lat.Count() > 0 {
		out.MeanLatency = lat.Mean()
		out.P99Latency = lat.Percentile(99)
	}
	out.CPU = osched.CPUConsumption()
	out.CtxSwitches = osched.ContextSwitches()
	var completedIO uint64
	for _, d := range devs {
		dst := d.Stats()
		completedIO += dst.CompletedReads + dst.CompletedWrites
		out.Outstanding += dst.AvgOutstanding
	}
	out.IOPS = float64(completedIO) / secs
	out.attributeCPU(cpus, measuredOps, idleSpin)
	out.Throttled = throttled

	// Drain: parked ops flow through the engine once stopping is set so
	// none leak un-completed.
	stopping = true
	if gov != nil {
		for si := 0; si < n; si++ {
			for _, op := range parked[si] {
				inflight[si]++
				trees[si].Admit(op)
			}
			parked[si] = nil
		}
	}
	for _, t := range trees {
		t.Stop()
	}
	eng.RunFor(2 * time.Second)
	return out
}
