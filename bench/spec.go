package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// bufferPages is the page cache every wall-clock workload opens the
// engine with: 4096 pages of 512 B = 2 MiB (patree's own default, set
// explicitly so the cache ratios below are part of the benchmark).
const bufferPages = 4096

// mix is an operation mix in percent; the five shares sum to 100.
type mix struct{ get, scan, update, put, del int }

// spec is one workload.
type spec struct {
	name      string
	why       string
	keys      int
	valueSize int
	theta     float64
	mix       mix
	journal   bool // Options.Journal
	serve     bool // drive through client.Pool → server.Server
	sim       bool // virtual time on the simulated device
	warmOps   int  // loaded operations run before the first window
}

// The four workloads. Image sizes are stated against the 2 MiB cache:
// 50 000 × (12 B slot + 100 B value) at fill 0.7 is ≈ 17 k pages ≈ 9 MB,
// 4× the cache; 8 000 keys are ≈ 2.7 k pages, inside it. (ISSUE 12 asked
// for 200 000 keys; Open's recovery walk reads every page one at a time,
// ≈ 8 s on that image, a round opens such an image five times, and what a
// run does besides measuring must leave the driver's time caps a margin
// of several times for the box's slow minutes.)
var specs = []*spec{
	{
		name: "embed-cold-read",
		why:  "embedded DB, 9 MB image vs 2 MiB cache, 90/5/5 get/scan/update, Zipf 0.99: descent, buffer miss/evict and the device path do the work; wire and journal do none",
		keys: 50_000, valueSize: 100, theta: 0.99,
		mix:     mix{get: 90, scan: 5, update: 5},
		warmOps: 60_000,
	},
	{
		name: "embed-journal-write",
		why:  "same image with Journal on, 45/20/10/25 update/put/delete/get, Zipf 0.5: journal gate, WAL writer, latches, splits, checkpoints and image growth; a read-path gain that costs writes shows here",
		keys: 50_000, valueSize: 100, theta: 0.5,
		mix:     mix{get: 25, update: 45, put: 20, del: 10},
		journal: true,
		warmOps: 30_000,
	},
	{
		name: "serve-hot-mixed",
		why:  "one TCP connection to server.Server over the same engine, 8 000 keys that fit the cache, 90/10 get/update: client, proto, server and burst admission dominate; device and miss path idle",
		keys: 8_000, valueSize: 100, theta: 0.99,
		mix:     mix{get: 90, update: 10},
		serve:   true,
		warmOps: 60_000,
	},
	{
		name: "sim-paper-default",
		why:  "virtual time: the paper's PA-Tree configuration (Fig 7/8) on the simulated device, 200 000 keys, 90/10 search/update, Zipf 0.3; host-CPU noise is invisible, I/O-schedule changes show exactly",
		keys: 200_000, valueSize: 8, theta: 0.3,
		mix: mix{get: 90, put: 10},
		sim: true,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// runCfg is how one workload is run.
type runCfg struct {
	seed     uint64
	seconds  float64 // measured time; virtual windows scale with it too
	trace    bool
	setups   int    // set-up repetitions whose median is setup_s
	shrink   int    // divide image and warm-up by this (the smoke test)
	isoIters int    // calls per isolated timing loop
	traceOut string // span file of a traced run ("" = none)
}

// setupReps is how often an untraced run sets up. setup_s is the median,
// which for two is the mean of a cold and a warm set-up, so work moved
// into once-per-process initialisation shows as well as work moved into
// Open. It is a constant because it is part of what setup_s and
// rss_peak_mb mean: result files made with other values would not
// compare.
const setupReps = 2

func (c *runCfg) keys(sp *spec) int    { return sp.keys / c.shrink }
func (c *runCfg) warmOps(sp *spec) int { return sp.warmOps / c.shrink }

func (c *runCfg) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// metricDef names one metric; bound is the relative worsening that counts
// as a regression (end-to-end only).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload in the untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us/op", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"dev_ios_per_op", "cmds/op", "lower", 0.05},
	{"write_amp", "ratio", "lower", 0.05},
	{"space_amp", "ratio", "lower", 0.05},
}

// perLayer are the single-layer metrics of the traced pass, measured
// from outside the layers. A metric that does not exist on a workload
// (client.* on an embedded one) is reported as 0.
var perLayer = []metricDef{
	{"client.self_us", "us", "lower", 0},
	{"client.busy_retries_per_op", "1/op", "lower", 0},
	{"proto.encode_ns", "ns", "lower", 0},
	{"proto.decode_ns", "ns", "lower", 0},
	{"proto.wire_bytes_per_op", "B/op", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.burst_ops_mean", "ops", "higher", 0},
	{"server.busy_per_op", "1/op", "lower", 0},
	{"patree.commit_us_per_op", "us/op", "lower", 0},
	{"patree.wait_p50_us", "us", "lower", 0},
	{"patree.admit_waits_per_op", "1/op", "lower", 0},
	{"patree.load_p99_us", "us", "lower", 0},
	{"patree.residual_us", "us", "lower", 0},
	{"core.inbox_mean_us", "us", "lower", 0},
	{"core.queue_wait_mean_us", "us", "lower", 0},
	{"core.latch_wait_mean_us", "us", "lower", 0},
	{"core.io_wait_mean_us", "us", "lower", 0},
	{"core.deliver_mean_us", "us", "lower", 0},
	{"core.total_mean_us", "us", "lower", 0},
	{"core.cpu_real_work_share", "ratio", "higher", 0},
	{"core.cpu_sched_share", "ratio", "lower", 0},
	{"core.cpu_nvme_share", "ratio", "lower", 0},
	{"core.cpu_sync_share", "ratio", "lower", 0},
	{"core.cpu_other_share", "ratio", "lower", 0},
	{"latch.waits_per_op", "1/op", "lower", 0},
	{"latch.acquire_release_ns", "ns", "lower", 0},
	{"buffer.hit_rate", "ratio", "higher", 0},
	{"buffer.get_hit_ns", "ns", "lower", 0},
	{"buffer.fill_evict_ns", "ns", "lower", 0},
	{"storage.search_page_ns", "ns", "lower", 0},
	{"storage.node_decode_ns", "ns", "lower", 0},
	{"storage.node_encode_ns", "ns", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.appends_per_op", "1/op", "lower", 0},
	{"wal.checkpoints_per_s", "1/s", "lower", 0},
	{"wal.append_ns", "ns", "lower", 0},
	{"sched.probes_per_op", "1/op", "lower", 0},
	{"sched.empty_probe_ratio", "ratio", "lower", 0},
	{"sched.queue_push_pop_ns", "ns", "lower", 0},
	{"probe.abs_err_p50_us", "us", "lower", 0},
	{"probe.bias_us", "us", "lower", 0},
	{"nvme.reads_per_op", "cmds/op", "lower", 0},
	{"nvme.writes_per_op", "cmds/op", "lower", 0},
	{"nvme.read_bytes_per_op", "B/op", "lower", 0},
	{"nvme.write_bytes_per_op", "B/op", "lower", 0},
	{"nvme.flushes_per_op", "cmds/op", "lower", 0},
	{"nvme.cmd_read_p50_us", "us", "lower", 0},
	{"nvme.cmd_write_p50_us", "us", "lower", 0},
	{"nvme.qdepth_mean", "cmds", "higher", 0},
	{"nvme.submit_ns", "ns", "lower", 0},
	{"nvme.probe_ns", "ns", "lower", 0},
	{"nvme.queue_full_per_op", "1/op", "lower", 0},
	{"nvme.errors_per_op", "1/op", "lower", 0},
	{"sim.host_us_per_op", "us/op", "lower", 0},
	{"simos.ctx_switches_per_op", "1/op", "lower", 0},
	{"simos.busy_cores", "cores", "lower", 0},
	{"runtime.allocs_per_op", "1/op", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B/op", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"bench.gen_ns_per_op", "ns/op", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.steady", "count", "higher", 0},
	{"bench.unloaded_p99_us", "us", "lower", 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports: the contract's last
// line, plus sample counts and notes for the human-readable table.
type result struct {
	Workload  string                 `json:"-"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	samples   map[string]int
	notes     []string
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: map[string]metricValue{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = metricValue{Value: v} }

func (r *result) setN(name string, v float64, n int) {
	r.set(name, v)
	r.samples[name] = n
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// seal keeps exactly the metrics of defs, in their units: one missing
// from the run reads 0 (it does not exist on this workload), one that is
// not a finite number is an error.
func (r *result) seal(defs []metricDef) error {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := r.Metrics[d.name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is not finite", r.Workload, d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	r.Metrics = out
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return nil
}

// table renders the result for a reader: every metric by name with its
// unit, and the sample count where one applies.
func (r *result) table(defs []metricDef) string {
	s := fmt.Sprintf("%s: correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, d := range defs {
		line := fmt.Sprintf("  %-28s %16.6g %s", d.name, r.Metrics[d.name].Value, d.unit)
		if n, ok := r.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		s += line + "\n"
	}
	for _, n := range r.notes {
		s += "  # " + n + "\n"
	}
	return s
}

// runSeconds is how long one run measures, as BENCHMARK.json states it.
const runSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the definitions above, so the
// file at the repository root and the program cannot disagree (the smoke
// test compares them).
func benchmarkJSON() string {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, workload{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(out) + "\n"
}
