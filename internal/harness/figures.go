package harness

import (
	"fmt"
	"time"

	"github.com/patree/patree/internal/baseline/syncbtree"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/probe"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/workload"
)

// Report is one regenerated table/figure.
type Report struct {
	ID    string
	Title string
	Table *metrics.Table
	// Notes records the expected shape from the paper for EXPERIMENTS.md.
	Notes string
}

func (r Report) String() string {
	return fmt.Sprintf("=== %s: %s ===\n%s", r.ID, r.Title, r.Table)
}

// defaultGen builds the paper's default workload (90% read / 10% update,
// zipf α=0.3).
func defaultGen(scale Scale, updatePct int, theta float64) *workload.YCSB {
	return workload.NewYCSB(workload.YCSBConfig{
		Keys:          uint64(scale.PreloadKeys),
		UpdatePercent: updatePct,
		Theta:         theta,
		Seed:          scale.Seed,
	})
}

// workloadAware builds the default Algorithm 2 policy.
func workloadAware(yield time.Duration) sched.Policy {
	m, err := probe.Default()
	if err != nil {
		panic(err)
	}
	return sched.NewWorkload(m, nil, yield)
}

// paTreeConfig is the standard PA-Tree configuration (§V: single working
// thread, workload-aware scheduling, prioritized execution, no buffer
// unless stated).
func paTreeConfig(bufferPages int, persistence core.Persistence) core.Config {
	return core.Config{
		Persistence: persistence,
		BufferPages: bufferPages,
		Policy:      workloadAware(20 * time.Microsecond),
		Prioritized: true,
	}
}

// paTree returns a PAConfig.MkTree builder for paTreeConfig.
func paTree(bufferPages int, persistence core.Persistence) func() core.Config {
	return func() core.Config { return paTreeConfig(bufferPages, persistence) }
}

// ─── Figure 3: device characterization ──────────────────────────────────

// rawDeviceRun drives raw 512B I/O at a fixed queue depth / write rate /
// probe cycle and returns (IOPS, mean latency).
func rawDeviceRun(seed uint64, qd, writePct int, probeCycle, dur time.Duration) (float64, time.Duration) {
	eng := sim.NewEngine()
	dev := nvme.NewSimDevice(eng, nvme.SimConfig{Seed: seed})
	qp, err := dev.AllocQueuePair(qd + 8)
	if err != nil {
		panic(err)
	}
	rng := sim.NewRNG(seed ^ 0xf16)
	buf := make([]byte, dev.BlockSize())
	inflight, completed := 0, uint64(0)
	submit := func() {
		for inflight < qd {
			op := nvme.OpRead
			if rng.Intn(100) < writePct {
				op = nvme.OpWrite
			}
			if qp.Submit(&nvme.Command{Op: op, LBA: rng.Uint64n(65536), Blocks: 1, Buf: buf,
				Callback: func(nvme.Completion) { inflight--; completed++ }}) != nil {
				return
			}
			inflight++
		}
	}
	submit()
	var tick func()
	tick = func() {
		qp.Probe(0)
		submit()
		eng.After(probeCycle, tick)
	}
	eng.After(probeCycle, tick)
	eng.RunUntil(sim.Time(dur))
	st := dev.Stats()
	lat := metrics.NewHistogram()
	lat.Merge(st.ReadLatency)
	lat.Merge(st.WriteLatency)
	return float64(completed) / dur.Seconds(), lat.Mean()
}

// Fig3a reproduces IOPS vs queue depth × write rate.
func Fig3a(scale Scale) Report {
	tb := metrics.NewTable("queue depth", "write 0% (KIOPS)", "write 10% (KIOPS)", "write 50% (KIOPS)")
	for _, qd := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		row := []any{qd}
		for _, wp := range []int{0, 10, 50} {
			iops, _ := rawDeviceRun(scale.Seed, qd, wp, 20*time.Microsecond, scale.Measure)
			row = append(row, iops/1e3)
		}
		tb.AddRow(row...)
	}
	return Report{ID: "fig3a", Title: "Device IOPS vs queue depth and write rate", Table: tb,
		Notes: "IOPS at QD>=32 should exceed QD1 by ~an order of magnitude; higher write rate lowers IOPS"}
}

// Fig3b reproduces access latency vs queue depth × write rate.
func Fig3b(scale Scale) Report {
	tb := metrics.NewTable("queue depth", "write 0% (us)", "write 10% (us)", "write 50% (us)")
	for _, qd := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		row := []any{qd}
		for _, wp := range []int{0, 10, 50} {
			_, lat := rawDeviceRun(scale.Seed, qd, wp, 20*time.Microsecond, scale.Measure)
			row = append(row, float64(lat)/1e3)
		}
		tb.AddRow(row...)
	}
	return Report{ID: "fig3b", Title: "Device access latency vs queue depth and write rate", Table: tb,
		Notes: "latency grows with queue depth and write rate"}
}

// Fig3c reproduces IOPS and latency vs probe cycle.
func Fig3c(scale Scale) Report {
	tb := metrics.NewTable("probe cycle (us)", "KIOPS", "latency (us)")
	for _, cyc := range []time.Duration{1, 2, 5, 10, 20, 50, 100, 200} {
		iops, lat := rawDeviceRun(scale.Seed, 64, 10, cyc*time.Microsecond, scale.Measure)
		tb.AddRow(int(cyc), iops/1e3, float64(lat)/1e3)
	}
	return Report{ID: "fig3c", Title: "Device IOPS/latency vs probe cycle (QD 64, 10% writes)", Table: tb,
		Notes: "over-frequent probing (~1us) collapses IOPS; rare probing (>100us) inflates latency and lowers IOPS"}
}

// ─── Figures 7/8 + Tables I/II + Figure 9 ───────────────────────────────

// SchemeRows runs PA-Tree plus the shared/dedicated baselines across
// thread counts and workloads; shared by Fig7 (throughput), Fig8
// (latency), Table I, Table II and Fig9.
type SchemeRows struct {
	Workload string
	PA       RunStats
	Shared   map[int]RunStats
	Dedic    map[int]RunStats
}

// RunSchemes executes the §V-A comparison for the given workloads.
func RunSchemes(scale Scale, updatePcts []int) []SchemeRows {
	var out []SchemeRows
	for _, up := range updatePcts {
		rows := SchemeRows{Shared: map[int]RunStats{}, Dedic: map[int]RunStats{}}
		gen := defaultGen(scale, up, 0.3)
		rows.Workload = gen.Name()
		rows.PA = RunPATree(PAConfig{Scale: scale, MkTree: paTree(0, core.StrongPersistence), Gen: gen})
		for _, n := range scale.Threads {
			rows.Shared[n] = RunSync(SyncConfig{Scale: scale, Kind: KindShared, Threads: n,
				Gen: defaultGen(scale, up, 0.3)})
			rows.Dedic[n] = RunSync(SyncConfig{Scale: scale, Kind: KindDedicated, Threads: n,
				Gen: defaultGen(scale, up, 0.3)})
		}
		out = append(out, rows)
	}
	return out
}

// Fig7 renders throughput vs threads.
func Fig7(rows []SchemeRows, scale Scale) Report {
	tb := metrics.NewTable("workload", "threads", "PA-Tree (Kops/s)", "shared (Kops/s)", "dedicated (Kops/s)")
	for _, r := range rows {
		for _, n := range scale.Threads {
			tb.AddRow(r.Workload, n, r.PA.Throughput/1e3, r.Shared[n].Throughput/1e3, r.Dedic[n].Throughput/1e3)
		}
	}
	return Report{ID: "fig7", Title: "Index throughput vs #threads (PA-Tree uses 1 thread)", Table: tb,
		Notes: "PA-Tree with 1 thread beats both baselines at every thread count (paper: >=5x); baselines peak near 32 threads then degrade"}
}

// Fig8 renders latency vs threads.
func Fig8(rows []SchemeRows, scale Scale) Report {
	tb := metrics.NewTable("workload", "threads", "PA-Tree (us)", "shared (us)", "dedicated (us)")
	for _, r := range rows {
		for _, n := range scale.Threads {
			tb.AddRow(r.Workload, n,
				float64(r.PA.MeanLatency)/1e3,
				float64(r.Shared[n].MeanLatency)/1e3,
				float64(r.Dedic[n].MeanLatency)/1e3)
		}
	}
	return Report{ID: "fig8", Title: "Operation latency vs #threads", Table: tb,
		Notes: "baseline latency grows with threads, exceeding 10^4 us at 128; PA-Tree stays competitive with the best baseline point"}
}

// Table1 renders the runtime statistics at the baselines' best thread
// count (32, per the paper).
func Table1(rows []SchemeRows) Report {
	tb := metrics.NewTable("method", "outstanding I/Os", "IOPS (10^3)", "CPU consumption", "context switches")
	r := rows[0] // default workload
	add := func(name string, s RunStats) {
		tb.AddRow(name, s.Outstanding, s.IOPS/1e3, s.CPU, s.CtxSwitches)
	}
	add("shared(32)", r.Shared[32])
	add("dedicated(32)", r.Dedic[32])
	add("PA-Tree", r.PA)
	return Report{ID: "table1", Title: "Runtime statistics (default workload)", Table: tb,
		Notes: "PA-Tree keeps more outstanding I/Os with ~1000x fewer context switches and the lowest CPU"}
}

// Table2 renders CPU cycles per operation.
func Table2(rows []SchemeRows) Report {
	tb := metrics.NewTable("method", "CPU cycles (10^3) per op")
	r := rows[0]
	tb.AddRow("PA-Tree", r.PA.CyclesPerOp)
	tb.AddRow("dedicated(32)", r.Dedic[32].CyclesPerOp)
	tb.AddRow("shared(32)", r.Shared[32].CyclesPerOp)
	return Report{ID: "table2", Title: "CPU consumption per operation", Table: tb,
		Notes: "baselines consume 1-2 orders of magnitude more cycles per op than PA-Tree"}
}

// Fig9 renders the CPU breakdown. The trailing sum column is a sanity
// check on the live accounting: the category fractions of attributed
// CPU must cover (essentially) all of it.
func Fig9(rows []SchemeRows) Report {
	tb := metrics.NewTable("method", "real work %", "synchronization %", "NVMe %", "scheduling %", "others %", "sum %")
	r := rows[0]
	add := func(name string, s RunStats) {
		row := []any{name}
		sum := 0.0
		for _, f := range s.Breakdown {
			row = append(row, f*100)
			sum += f * 100
		}
		row = append(row, sum)
		tb.AddRow(row...)
	}
	add("PA-Tree", r.PA)
	add("dedicated(32)", r.Dedic[32])
	add("shared(32)", r.Shared[32])
	return Report{ID: "fig9", Title: "CPU consumption breakdown", Table: tb,
		Notes: "PA-Tree spends >50% on real work; baselines spend most cycles on synchronization/context switches with <20% real work"}
}

// ─── Figure 10: probing strategies ──────────────────────────────────────

// Fig10 compares workload-aware probing with avg-latency and fixed-cycle
// probing.
func Fig10(scale Scale) Report {
	tb := metrics.NewTable("policy", "Kops/s", "mean latency (us)", "CPU", "probes/s (10^3)")
	run := func(p sched.Policy) RunStats {
		cfg := paTreeConfig(0, core.StrongPersistence)
		cfg.Policy = p
		return RunPATree(PAConfig{Scale: scale, MkTree: func() core.Config { return cfg },
			Gen: defaultGen(scale, 10, 0.3)})
	}
	add := func(name string, s RunStats) {
		tb.AddRow(name, s.Throughput/1e3, float64(s.MeanLatency)/1e3, s.CPU,
			float64(s.Probes)/scale.Measure.Seconds()/1e3)
	}
	add("workload-aware", run(workloadAware(20*time.Microsecond)))
	add("avg-latency", run(sched.NewAvgLatency()))
	for _, cyc := range []time.Duration{1, 5, 20, 50, 100, 200} {
		add(fmt.Sprintf("fixed %dus", cyc), run(sched.NewFixedCycle(cyc*time.Microsecond)))
	}
	return Report{ID: "fig10", Title: "Probing strategies (default workload)", Table: tb,
		Notes: "workload-aware probing beats every fixed cycle and the avg-latency strawman on throughput; very short cycles collapse throughput, very long ones inflate latency"}
}

// ─── Figure 11: dedicated polling thread ────────────────────────────────

// Fig11 compares PA-Tree with PAD-Tree and PAD+-Tree.
func Fig11(scale Scale) Report {
	tb := metrics.NewTable("variant", "Kops/s", "CPU consumption")
	run := func(poller core.Poller) RunStats {
		cfg := paTreeConfig(0, core.StrongPersistence)
		cfg.Poller = poller
		return RunPATree(PAConfig{Scale: scale, MkTree: func() core.Config { return cfg },
			Gen: defaultGen(scale, 10, 0.3)})
	}
	s := run(core.PollerInline)
	tb.AddRow("PA-Tree", s.Throughput/1e3, s.CPU)
	s = run(core.PollerDedicatedSpin)
	tb.AddRow("PAD-Tree", s.Throughput/1e3, s.CPU)
	s = run(core.PollerDedicatedModel)
	tb.AddRow("PAD+-Tree", s.Throughput/1e3, s.CPU)
	return Report{ID: "fig11", Title: "Workload-aware vs dedicated polling", Table: tb,
		Notes: "PAD-Tree is much worse despite higher CPU (spin-probing interferes with the device); PAD+-Tree has similar CPU to PA-Tree but slightly lower throughput (cross-thread handoff)"}
}

// ─── Figure 12: prioritized execution ───────────────────────────────────

// Fig12 sweeps key skewness with prioritization on and off.
func Fig12(scale Scale) Report {
	tb := metrics.NewTable("zipf alpha", "prioritized (Kops/s)", "FIFO (Kops/s)", "prioritized lat (us)", "FIFO lat (us)")
	for _, theta := range []float64{0.001, 0.3, 0.6, 0.9} {
		run := func(prio bool) RunStats {
			cfg := paTreeConfig(0, core.StrongPersistence)
			cfg.Prioritized = prio
			return RunPATree(PAConfig{Scale: scale, MkTree: func() core.Config { return cfg },
				Gen: defaultGen(scale, 50, theta)})
		}
		p, f := run(true), run(false)
		tb.AddRow(theta, p.Throughput/1e3, f.Throughput/1e3,
			float64(p.MeanLatency)/1e3, float64(f.MeanLatency)/1e3)
	}
	return Report{ID: "fig12", Title: "Prioritized execution vs key skewness (update-heavy)", Table: tb,
		Notes: "prioritized execution wins on throughput and latency, with the margin growing as skew (latch contention) rises"}
}

// ─── Figure 13: CPU yielding ────────────────────────────────────────────

// Fig13 sweeps the open-loop input rate with yielding on and off.
func Fig13(scale Scale) Report {
	tb := metrics.NewTable("input rate (Kops/s)", "CPU with yield", "CPU no yield", "Kops/s with yield", "Kops/s no yield")
	for _, rate := range []float64{25e3, 50e3, 100e3, 200e3, 400e3} {
		run := func(yield time.Duration) RunStats {
			cfg := paTreeConfig(0, core.StrongPersistence)
			cfg.Policy = workloadAware(yield)
			return RunPATree(PAConfig{Scale: scale, MkTree: func() core.Config { return cfg },
				Gen: defaultGen(scale, 10, 0.3), ArrivalRate: rate})
		}
		y := run(50 * time.Microsecond)
		n := run(0)
		tb.AddRow(rate/1e3, y.CPU, n.CPU, y.Throughput/1e3, n.Throughput/1e3)
	}
	return Report{ID: "fig13", Title: "CPU yielding vs input rate", Table: tb,
		Notes: "without yielding CPU stays high (>0.75 cores) even at low rates; yielding scales CPU with load without hurting throughput"}
}

// ─── Figure 14: buffering ───────────────────────────────────────────────

// Fig14 sweeps the buffer size for strong and weak persistence.
func Fig14(scale Scale) Report {
	// Index pages ≈ preload / ~17 pairs per 70%-full leaf.
	indexPages := scale.PreloadKeys / 17
	tb := metrics.NewTable("buffer (% of index)", "strong (Kops/s)", "weak (Kops/s)", "strong lat (us)", "weak lat (us)")
	for _, pct := range []int{0, 1, 5, 10, 20} {
		pages := indexPages * pct / 100
		s := RunPATree(PAConfig{Scale: scale, MkTree: paTree(pages, core.StrongPersistence),
			Gen: defaultGen(scale, 10, 0.3)})
		w := RunPATree(PAConfig{Scale: scale, MkTree: paTree(pages, core.WeakPersistence),
			Gen: defaultGen(scale, 10, 0.3), SyncEvery: 1000})
		tb.AddRow(pct, s.Throughput/1e3, w.Throughput/1e3,
			float64(s.MeanLatency)/1e3, float64(w.MeanLatency)/1e3)
	}
	return Report{ID: "fig14", Title: "Data buffering (default workload)", Table: tb,
		Notes: "even a small buffer boosts performance (root/inner locality); weak persistence beats strong at every size"}
}

// ─── Figure 15: end-to-end ──────────────────────────────────────────────

// Fig15 compares PA-Tree against Blink-Tree, LCB-Tree and the LSM store
// under strong and weak persistence on the synthetic default workload and
// the two real-workload stand-ins.
func Fig15(scale Scale) Report {
	tb := metrics.NewTable("workload", "method", "persistence", "Kops/s", "mean latency (us)")
	// Baselines run multi-threaded (32, the §V-A sweet spot); buffers are
	// 10% of the index size, sync every 1000 updates in weak mode.
	threads := 32
	gens := func(which string) workload.Generator {
		switch which {
		case "t-drive":
			return workload.NewTDrive(workload.TDriveConfig{
				PreloadRecords: scale.PreloadKeys, Seed: scale.Seed})
		case "sse":
			return workload.NewSSE(workload.SSEConfig{
				PreloadOrders: scale.PreloadKeys, Seed: scale.Seed})
		default:
			return defaultGen(scale, 10, 0.3)
		}
	}
	indexPages := scale.PreloadKeys / 12
	bufPages := indexPages / 10
	for _, wl := range []string{"ycsb-default", "t-drive", "sse"} {
		for _, persist := range []syncbtree.Persistence{syncbtree.Strong, syncbtree.Weak} {
			pmode := core.StrongPersistence
			syncEvery := 0
			if persist == syncbtree.Weak {
				pmode = core.WeakPersistence
				syncEvery = 1000
			}
			pa := RunPATree(PAConfig{Scale: scale, MkTree: paTree(bufPages, pmode),
				Gen: gens(wl), SyncEvery: syncEvery})
			tb.AddRow(wl, "PA-Tree", persistName(persist), pa.Throughput/1e3, float64(pa.MeanLatency)/1e3)
			for _, kind := range []SyncKind{KindBlink, KindLCB, KindLSM} {
				s := RunSync(SyncConfig{Scale: scale, Kind: kind, Threads: threads,
					Gen: gens(wl), Persistence: persist, CachePages: bufPages, SyncEvery: syncEvery})
				tb.AddRow(wl, kind.String(), persistName(persist), s.Throughput/1e3, float64(s.MeanLatency)/1e3)
			}
		}
	}
	return Report{ID: "fig15", Title: "End-to-end comparison (baselines at 32 threads)", Table: tb,
		Notes: "PA-Tree ~2x the best baseline throughput and >=30% lower latency; weak beats strong for every method; the LSM's strong-persistence penalty is extreme (sync per write)"}
}

// ─── Multi-device shard scaling (beyond the paper) ──────────────────────

// MultiDevTopologies is the shard-count × device-count sweep FigMultiDev
// charts and the CI bench gate (cmd/paexp -bench-out) measures.
var MultiDevTopologies = [][2]int{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {4, 2}, {8, 2}, {8, 4}}

// MultiDevSweep runs the standard multi-device scaling sweep and returns
// one stats record per entry of MultiDevTopologies, in order.
func MultiDevSweep(scale Scale) []RunStats {
	out := make([]RunStats, 0, len(MultiDevTopologies))
	for _, topo := range MultiDevTopologies {
		out = append(out, RunPATree(PAConfig{
			Scale:   scale,
			Shards:  topo[0],
			Devices: topo[1],
			MkTree:  paTree(0, core.StrongPersistence),
			Gen:     defaultGen(scale, 10, 0.3),
			Device:  nvme.SimConfig{Parallelism: 256},
		}))
	}
	return out
}

// FigMultiDev sweeps shard count × device count on the default workload:
// N single-threaded PA-Tree workers, keyspace hash-partitioned, closed
// loop with the standard concurrency per worker, the device's internal
// parallelism raised so it is not the bottleneck. On one device the
// curve peaks at 4 shards because all shards share one controller's
// submit/probe bandwidth; spreading the same shards over more devices
// removes that interference, so the curve keeps climbing where the
// single-device one turns over.
func FigMultiDev(scale Scale) Report {
	tb := metrics.NewTable("shards", "devices", "Kops/s", "mean latency (us)", "p99 latency (us)", "CPU (cores)")
	for i, s := range MultiDevSweep(scale) {
		topo := MultiDevTopologies[i]
		tb.AddRow(topo[0], topo[1], s.Throughput/1e3, float64(s.MeanLatency)/1e3, float64(s.P99Latency)/1e3, s.CPU)
	}
	return Report{ID: "figmultidev", Title: "PA-Tree shard scaling across devices (default workload, device parallelism 256)", Table: tb,
		Notes: "single-device rows reproduce figshards (peak at 4 shards, decline at 8); the same 8 shards on 2 devices clear the 4-shard single-device peak ~2x because each controller serves half the submit/probe traffic; at 8x4 every pair of shards has a private controller and the curve returns to near-linear (~4.4x the 2-shard point)"}
}

// ─── Read-heavy optimistic reads (beyond the paper) ─────────────────────

// FigReadHeavy sweeps shard counts on the 95/5 read-heavy mix with the
// optimistic reader off and on (whole index buffered, so publication
// coverage — not buffer misses — decides the serve rate).
func FigReadHeavy(scale Scale) Report {
	tb := metrics.NewTable("shards", "pipeline (Kops/s)", "optimistic (Kops/s)", "speedup",
		"served %", "pipeline lat (us)", "optimistic lat (us)")
	bufPages := scale.PreloadKeys / 12
	for _, n := range []int{1, 2, 4} {
		run := func(conc bool) RunStats {
			return RunPATree(PAConfig{
				Scale:  scale,
				Shards: n,
				MkTree: func() core.Config {
					cfg := paTreeConfig(bufPages, core.StrongPersistence)
					cfg.ConcurrentReads = conc
					return cfg
				},
				Gen:    defaultGen(scale, 5, 0.3),
				Device: nvme.SimConfig{Parallelism: 256},
			})
		}
		off := run(false)
		on := run(true)
		servedPct := 0.0
		if tot := on.ReaderServed + on.ReaderFallback; tot > 0 {
			servedPct = 100 * float64(on.ReaderServed) / float64(tot)
		}
		tb.AddRow(n, off.Throughput/1e3, on.Throughput/1e3, on.Throughput/off.Throughput,
			servedPct, float64(off.MeanLatency)/1e3, float64(on.MeanLatency)/1e3)
	}
	return Report{ID: "figreadheavy", Title: "Read-heavy (95/5) throughput: pipeline vs optimistic reads", Table: tb,
		Notes: "with the index buffered and published, the optimistic path serves the vast majority of lookups off the worker thread; per-shard read throughput at least doubles while the pipeline keeps exclusive ownership of writes"}
}

func persistName(p syncbtree.Persistence) string {
	if p == syncbtree.Weak {
		return "weak"
	}
	return "strong"
}

// Experiment is one regenerable report and its paexp -run id.
type Experiment struct {
	ID string
	// Schemes marks reports rendered from RunSchemes' §V-A comparison;
	// the others ignore the rows Run is given.
	Schemes bool
	Run     func(rows []SchemeRows, scale Scale) Report
}

func scaled(f func(Scale) Report) func([]SchemeRows, Scale) Report {
	return func(_ []SchemeRows, s Scale) Report { return f(s) }
}

func fromRows(f func([]SchemeRows) Report) func([]SchemeRows, Scale) Report {
	return func(rows []SchemeRows, _ Scale) Report { return f(rows) }
}

// Experiments lists every report in paexp's output order.
var Experiments = []Experiment{
	{ID: "fig3a", Run: scaled(Fig3a)},
	{ID: "fig3b", Run: scaled(Fig3b)},
	{ID: "fig3c", Run: scaled(Fig3c)},
	{ID: "fig7", Schemes: true, Run: Fig7},
	{ID: "fig8", Schemes: true, Run: Fig8},
	{ID: "table1", Schemes: true, Run: fromRows(Table1)},
	{ID: "table2", Schemes: true, Run: fromRows(Table2)},
	{ID: "fig9", Schemes: true, Run: fromRows(Fig9)},
	{ID: "fig10", Run: scaled(Fig10)},
	{ID: "fig11", Run: scaled(Fig11)},
	{ID: "fig12", Run: scaled(Fig12)},
	{ID: "fig13", Run: scaled(Fig13)},
	{ID: "fig14", Run: scaled(Fig14)},
	{ID: "fig15", Run: scaled(Fig15)},
	{ID: "figmultidev", Run: scaled(FigMultiDev)},
	{ID: "figreadheavy", Run: scaled(FigReadHeavy)},
	{ID: "figpipeline", Run: scaled(FigPipeline)},
}

// SelectExperiments returns what paexp -run id regenerates: every
// experiment for "all", else the one with that id (nil if none).
func SelectExperiments(id string) []Experiment {
	if id == "all" {
		return Experiments
	}
	for _, e := range Experiments {
		if e.ID == id {
			return []Experiment{e}
		}
	}
	return nil
}
