package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/client"
	"github.com/patree/patree/internal/server"
)

// runWorkload runs one workload once and returns its sealed result:
// end-to-end metrics from an untraced pass, or per-layer metrics from a
// traced one.
func runWorkload(sp *spec, cfg *runCfg) (*result, error) {
	var res *result
	var err error
	if sp.sim {
		res, err = runSim(sp, cfg)
	} else {
		res, err = runWall(sp, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := res.seal(defs); err != nil {
		return nil, err
	}
	return res, nil
}

// Phase shares of -seconds. Untraced: unloaded then loaded fill the whole
// time. Traced: an untraced loaded stretch gives the reference
// throughput, then the traced unloaded and loaded phases follow.
const (
	shareUnloaded = 0.35
	shareLoaded   = 0.65
	shareRefT     = 0.20
	shareUnloadT  = 0.15
	shareLoadT    = 0.45
)

func runWall(sp *spec, cfg *runCfg) (*result, error) {
	if sp.mix.scan > 0 && sp.mix.put+sp.mix.del > 0 {
		return nil, fmt.Errorf("scans are checked against a static key set; the mix also inserts or deletes")
	}
	res := newResult(sp.name)
	m0 := newModel(cfg.keys(sp), 0, sp.valueSize, cfg.seed)
	ix := m0.preloadIndex()
	pairs := m0.pairs(ix)
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}

	// Set-up, repeated: setup_s is the median, and the last instance is
	// the one measured.
	var w *wallRun
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		var err error
		if w, err = openWall(sp, cfg, pairs, ix, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.note("set-up %d: bulk load %.2f s, open %.2f s, warm-up %.2f s", i+1, w.loadS, w.openS, w.warmS)
		if i < cfg.setups-1 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close after set-up: %w", err)
			}
			w = nil
			debug.FreeOSMemory() // the discarded image must not pile onto the next one's peak
		}
	}
	pairs = nil
	res.setN("setup_s", medianOf(setups), len(setups))

	if cfg.trace {
		w.tracedPass(cfg, res)
	} else {
		w.untracedPass(cfg, res)
	}
	// Memory is the system's under measurement; the checks below hold
	// copies of the image that are the benchmark's own.
	res.set("rss_peak_mb", peakRSSMB())

	// Output checking: the crash image first (taken with nothing closed
	// or synced), then a full sweep of the live store, then the reopen.
	var img map[uint64][]byte
	if sp.journal {
		img = w.ram.ImageSnapshot()
	}
	done, failed, _ := w.totals()
	t0 := time.Now()
	checked, bad := w.sweep(w.store)
	res.note("sweep: %d live keys compared, %d wrong (%.2f s)", checked, bad, time.Since(t0).Seconds())
	res.Attempted, res.Failed = done+checked, failed+bad
	if img != nil {
		t0 := time.Now()
		checked, bad, err := w.reopenCheck(img)
		if err != nil {
			return nil, err
		}
		res.note("durability reopen: %d acknowledged keys compared, %d lost or wrong (%.2f s)", checked, bad, time.Since(t0).Seconds())
		res.Attempted += checked
		res.Failed += bad
	}
	live := float64(w.m.live.Load()) * float64(w.m.userBytes())
	res.set("space_amp", float64(w.dev.distinctWritten())*float64(w.dev.BlockSize())/live)
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if tr != nil && cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut, map[string]any{"workload": sp.name, "seed": cfg.seed, "clock": "wall ns since open"}); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.note("spans written to %s", cfg.traceOut)
	}
	if tr != nil {
		res.note("%s", tr.selfNote())
	}
	return res, nil
}

// untracedPass measures the end-to-end metrics. The rates are medians
// over the windows of the loaded phase: this box has stretches of a
// second or more in which the same work costs up to 1.7 times the CPU,
// and a mean over the phase carries every one of them. A stall that
// recurs in most windows (a slow checkpoint, a periodic sync) still
// costs its share of each and shows. The tail of the unloaded calls is
// printed but is not a metric: on a shared box it moves severalfold
// between identical runs (see README); the traced pass reports it as
// bench.unloaded_p99_us.
func (w *wallRun) untracedPass(cfg *runCfg, res *result) {
	lat := w.unloaded(cfg.dur(shareUnloaded))
	all := lat.sorted()
	res.setN("lat_p50_us", all.median()/1e3, len(all))
	res.note("unloaded, all %d calls: mean %.1f us, p99 %.1f us", len(all), all.mean()/1e3, all.tail()/1e3)

	edges := w.loaded(cfg.dur(shareLoaded), false)
	var rate, cpu []float64
	for i := 1; i < len(edges); i++ {
		x := edges[i-1].until(edges[i])
		rate = append(rate, x.opsPerS())
		cpu = append(cpu, x.cpuUsPerOp())
	}
	whole := edges[0].until(edges[len(edges)-1])
	res.setN("ops_per_s", medianOf(rate), int(whole.ops))
	res.setN("cpu_us_per_op", medianOf(cpu), int(whole.ops))
	res.setN("dev_ios_per_op", whole.iosPerOp(), int(whole.ops))
	res.setN("write_amp", whole.writeAmp(), int(whole.ops))
	res.note("loaded, %d windows: %.0f ops/s, %.2f us CPU/op over the whole phase; slowest window %.0f ops/s", len(rate), whole.opsPerS(), whole.cpuUsPerOp(), minOf(rate))
}

// pubSnap is one reading of the public snapshots the traced pass
// differences.
type pubSnap struct {
	m    patree.Metrics
	srv  server.Metrics
	pool client.Stats
}

func (w *wallRun) pubSnap() pubSnap {
	s := pubSnap{m: w.db.Metrics()}
	if w.srv != nil {
		s.srv = w.srv.Metrics()
		s.pool = w.pool.Stats()
	}
	return s
}

// stageSums returns, per stage, Σ count×mean (ns) and Σ count over the
// index operation classes of a Metrics snapshot. The public stage
// histograms are cumulative and bucketed, so windowed percentiles cannot
// be had from outside; count×mean can be differenced exactly.
func stageSums(m patree.Metrics) (sum map[string]float64, count map[string]float64) {
	sum, count = map[string]float64{}, map[string]float64{}
	for _, st := range m.Stages {
		if st.Op == "sync" || st.Op == "nop" {
			continue
		}
		sum[st.Stage] += float64(st.Count) * float64(st.Mean.Nanoseconds())
		count[st.Stage] += float64(st.Count)
	}
	return
}

// wireSums is the same for the server's per-kind request latency.
func wireSums(m server.Metrics) (sum, count float64) {
	for _, h := range m.WireLatency {
		sum += float64(h.Count) * float64(h.Mean.Nanoseconds())
		count += float64(h.Count)
	}
	return
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPass measures the per-layer metrics.
func (w *wallRun) tracedPass(cfg *runCfg, res *result) {
	r := w.loaded(cfg.dur(shareRefT), false)
	ref := r[0].until(r[loadedWindows]).opsPerS()

	w.dev.traced.Store(true)
	if w.sw != nil {
		w.sw.traced.Store(true)
	}
	for _, c := range w.cs {
		c.tr = w.tr
	}

	// Unloaded: one operation in flight, so means decompose along
	// client → wire → server → store → engine stages.
	s0 := w.pubSnap()
	w.tr.detail.Store(true)
	call := w.unloaded(cfg.dur(shareUnloadT))
	w.tr.detail.Store(false)
	s1 := w.pubSnap()
	w.dev.drainTimings()
	callMean := call.mean()
	below := callMean // mean time below the engine's public API
	if w.sw != nil {
		st := w.sw.drain()
		storeMean := st.spanNs.mean()
		sum0, n0 := wireSums(s0.srv)
		sum1, n1 := wireSums(s1.srv)
		srvMean := ratio(sum1-sum0, n1-n0)
		res.setN("client.self_us", (callMean-srvMean)/1e3, len(call))
		res.setN("server.self_us", (srvMean-storeMean)/1e3, int(n1-n0))
		below = storeMean
	}
	sum0, n0 := stageSums(s0.m)
	sum1, n1 := stageSums(s1.m)
	opsU := n1["total"] - n0["total"]
	stage := func(name string) float64 { return ratio(sum1[name]-sum0[name], opsU) / 1e3 }
	res.setN("core.inbox_mean_us", stage("inbox"), int(opsU))
	res.setN("core.queue_wait_mean_us", stage("queue-wait"), int(opsU))
	res.setN("core.io_wait_mean_us", stage("io-wait"), int(opsU))
	res.setN("core.deliver_mean_us", stage("deliver"), int(opsU))
	res.setN("core.total_mean_us", stage("total"), int(opsU))
	res.setN("patree.residual_us", below/1e3-stage("total"), len(call))
	res.setN("bench.unloaded_p99_us", call.sorted().tail()/1e3, len(call))

	// Loaded, traced.
	mem0 := readMem()
	edges := w.loaded(cfg.dur(shareLoadT), true)
	first, mid, last := edges[0], edges[loadedWindows/2], edges[loadedWindows]
	mem := mem0.until(readMem())
	s2 := w.pubSnap()
	w.dev.traced.Store(false)
	if w.sw != nil {
		w.sw.traced.Store(false)
	}
	all := first.until(last)
	ops := float64(all.ops)
	setDeviceMetrics(res, all.dev, ops, float64(all.userBytes), w.dev.drainTimings())

	var groupLat, waitLat samples
	var commitNs int64
	for _, c := range w.cs {
		groupLat = append(groupLat, c.groupLat...)
		waitLat = append(waitLat, c.waitLat...)
		commitNs += c.commitNs
	}
	if w.sw != nil {
		// Over the wire the engine-side commit and wait are the store
		// wrapper's, not the client's.
		st := w.sw.drain()
		waitLat, commitNs = st.waitNs, st.commitNs
		res.set("patree.commit_us_per_op", ratio(float64(commitNs), float64(st.ops))/1e3)
	} else {
		res.set("patree.commit_us_per_op", float64(commitNs)/ops/1e3)
	}
	res.setN("patree.wait_p50_us", waitLat.sorted().median()/1e3, len(waitLat))
	res.setN("patree.load_p99_us", groupLat.sorted().tail()/1e3, len(groupLat))

	a, b := s1.m, s2.m
	res.set("patree.admit_waits_per_op", float64(b.AdmitWaits-a.AdmitWaits)/ops)
	res.set("wal.appends_per_op", float64(b.JournalAppends-a.JournalAppends)/ops)
	res.set("wal.checkpoints_per_s", float64(b.Checkpoints-a.Checkpoints)/all.secs)
	// Latch waits need concurrency, so both latch numbers come from the
	// loaded phase: how often an operation waited, and for how long.
	ls1, lc1 := stageSums(a)
	ls2, lc2 := stageSums(b)
	res.set("latch.waits_per_op", (lc2["latch-wait"]-lc1["latch-wait"])/ops)
	res.set("core.latch_wait_mean_us", ratio(ls2["latch-wait"]-ls1["latch-wait"], lc2["total"]-lc1["total"])/1e3)
	res.set("buffer.hit_rate", b.BufferHit)
	cpuTotal := float64(b.CPU.Total - a.CPU.Total)
	res.set("core.cpu_real_work_share", ratio(float64(b.CPU.RealWork-a.CPU.RealWork), cpuTotal))
	res.set("core.cpu_sched_share", ratio(float64(b.CPU.Sched-a.CPU.Sched), cpuTotal))
	res.set("core.cpu_nvme_share", ratio(float64(b.CPU.NVMe-a.CPU.NVMe), cpuTotal))
	res.set("core.cpu_sync_share", ratio(float64(b.CPU.Sync-a.CPU.Sync), cpuTotal))
	res.set("core.cpu_other_share", ratio(float64(b.CPU.Other-a.CPU.Other), cpuTotal))
	res.set("probe.abs_err_p50_us", float64(b.Probe.AbsErrP50.Nanoseconds())/1e3)
	res.set("probe.bias_us", float64(b.Probe.Bias.Nanoseconds())/1e3)
	if w.srv != nil {
		res.set("client.busy_retries_per_op", float64(s2.pool.BusyRetries-s1.pool.BusyRetries)/ops)
		res.set("server.busy_per_op", float64(s2.srv.Busy-s1.srv.Busy)/ops)
		res.set("proto.wire_bytes_per_op", float64(s2.srv.BytesIn+s2.srv.BytesOut-s1.srv.BytesIn-s1.srv.BytesOut)/ops)
		b1, b2 := s1.srv.BurstSize, s2.srv.BurstSize
		res.set("server.burst_ops_mean", ratio(float64(b2.Count)*float64(b2.Mean)-float64(b1.Count)*float64(b1.Mean), float64(b2.Count-b1.Count)))
	}
	setRuntimeMetrics(res, mem, ops)

	res.set("bench.trace_overhead_pct", 100*(1-all.opsPerS()/ref))
	// Steady: the two halves of the traced loaded phase wrote the same
	// bytes per user byte, within 5 %.
	if a, b := first.until(mid).writeAmp(), mid.until(last).writeAmp(); math.Abs(b-a) < 0.05*a {
		res.set("bench.steady", 1)
	}
	res.set("bench.gen_ns_per_op", w.genCost(10*cfg.isoIters))
	isolated(res, cfg.isoIters)
}

// setDeviceMetrics reports what the device wrapper saw over a loaded
// phase of ops operations: the nvme.* layer, the probing it observed, and
// the WAL's share of the writes.
func setDeviceMetrics(res *result, d devCounts, ops, userBytes float64, t tracedTimings) {
	res.set("nvme.reads_per_op", float64(d.Reads)/ops)
	res.set("nvme.writes_per_op", float64(d.Writes)/ops)
	res.set("nvme.read_bytes_per_op", float64(d.ReadBytes)/ops)
	res.set("nvme.write_bytes_per_op", float64(d.WriteBytes)/ops)
	res.set("nvme.flushes_per_op", float64(d.Flushes)/ops)
	res.set("nvme.qdepth_mean", ratio(float64(d.DepthSum), float64(d.cmds())))
	res.set("nvme.queue_full_per_op", float64(d.QueueFull)/ops)
	res.set("nvme.errors_per_op", float64(d.Errors)/ops)
	res.setN("nvme.cmd_read_p50_us", t.readLat.sorted().median()/1e3, len(t.readLat))
	res.setN("nvme.cmd_write_p50_us", t.writeLat.sorted().median()/1e3, len(t.writeLat))
	res.set("nvme.submit_ns", t.submitNs)
	res.set("nvme.probe_ns", t.probeNs)
	res.set("sched.probes_per_op", float64(d.Probes)/ops)
	res.set("sched.empty_probe_ratio", ratio(float64(d.EmptyProbes), float64(d.Probes)))
	res.set("wal.bytes_per_user_byte", ratio(float64(d.WALWriteBytes), userBytes))
}

func setRuntimeMetrics(res *result, mem memDelta, ops float64) {
	res.set("runtime.allocs_per_op", float64(mem.mallocs)/ops)
	res.set("runtime.alloc_bytes_per_op", float64(mem.bytes)/ops)
	res.set("runtime.gc_cycles", float64(mem.gcs))
	res.set("runtime.gc_pause_ms", float64(mem.pauseNs)/1e6)
}

// genCost times the benchmark's own generator and checker with no store
// underneath: the cost to subtract from cpu_us_per_op when asking what
// the system itself spends.
func (w *wallRun) genCost(n int) float64 {
	sp := *w.sp
	sp.mix = mix{get: 100} // reads only: the model must not move
	c := newCaller(0, &sp, w.m, w.ix, 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := &c.slots[i%groupSize]
		c.gen(s)
		s.found, s.err = true, nil
		s.val = w.m.encode(s.buf, s.key, stateVer(s.lo))
		c.finish(s)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
