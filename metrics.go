package patree

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/trace"
)

// ErrTracingDisabled is returned by WriteTrace when the DB was opened
// without Options.Trace.
var ErrTracingDisabled = errors.New("patree: tracing disabled (set Options.Trace)")

// StageStats summarizes one pipeline stage for one operation type:
// where completed operations of that type spent their time between
// admission and completion. Conditional stages (admit-wait, latch-wait,
// io-wait) count only the operations that actually waited there.
type StageStats struct {
	Stage string // "admit-wait", "inbox", "queue-wait", "latch-wait", "io-wait", "deliver", "total"
	Op    string // "search", "range", "insert", "update", "delete", "sync", "nop"
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// CPUBreakdown attributes the working thread's accounted CPU time to
// the paper's Figure 9 categories. On the in-process device this is the
// tree's own cost-model accounting, kept live as the tree runs.
//
// RealWork is index logic (node visits, mutation, splits), Sync
// latching, NVMe submission and completion-queue probing, Sched
// ready-queue and main-loop bookkeeping, Other idle spinning and
// everything else.
type CPUBreakdown struct {
	RealWork time.Duration `metric:"patree_cpu_seconds_total{category=real-work} counter sum" help:"Accounted working-thread CPU by Figure 9 category."`
	Sync     time.Duration `metric:"patree_cpu_seconds_total{category=sync} counter sum"`
	NVMe     time.Duration `metric:"patree_cpu_seconds_total{category=nvme} counter sum"`
	Sched    time.Duration `metric:"patree_cpu_seconds_total{category=sched} counter sum"`
	Other    time.Duration `metric:"patree_cpu_seconds_total{category=other} counter sum"`
	Total    time.Duration `metric:"- counter sum"`
}

// ProbeStats reports how well the workload-aware scheduler's model
// predicted I/O completion times: each submission records a
// model-implied completion time, each detected completion is matched
// FIFO within its class, and the signed error is aggregated.
//
// Matched counts completions matched to a prediction: Late ones were
// detected after the predicted time, Early ones at or before it.
// Dropped counts submissions left untracked because the bounded matcher
// was full. A positive Bias means completions are detected later than
// predicted; it and the |error| figures are derived from every shard's
// matches at once.
type ProbeStats struct {
	Matched    uint64        `metric:"- counter sum"`
	Late       uint64        `metric:"patree_probe_predictions_total{outcome=late} counter sum" help:"Completion predictions by outcome."`
	Early      uint64        `metric:"patree_probe_predictions_total{outcome=early} counter sum"`
	Dropped    uint64        `metric:"patree_probe_predictions_total{outcome=dropped} counter sum"`
	Bias       time.Duration `metric:"patree_probe_bias_seconds gauge derived" help:"Mean signed completion-prediction error."`
	AbsErrMean time.Duration `metric:"- gauge derived"`
	AbsErrP50  time.Duration `metric:"- gauge derived"`
	AbsErrP95  time.Duration `metric:"- gauge derived"`
	AbsErrP99  time.Duration `metric:"- gauge derived"`
}

// Metrics is the full observability snapshot: activity counters, the
// per-stage latency decomposition, the CPU-category breakdown and the
// probe model's prediction accuracy. Like Stats it is collected on the
// working thread, so it is a consistent view.
type Metrics struct {
	Stats
	Stages      []StageStats
	CPU         CPUBreakdown
	Probe       ProbeStats
	TraceEvents uint64 `metric:"patree_trace_events_total counter sum" help:"Lifecycle trace events emitted."` // 0 unless Options.Trace
}

// shardMetricsSnap is one shard's contribution to Metrics, gathered on
// that shard's working thread. Histogram state is deep-copied there:
// the live histograms keep mutating on the worker after the snapshot
// no-op completes, so cross-shard merging must never touch them.
type shardMetricsSnap struct {
	m           Metrics // the tagged fields, before the cross-shard fold
	buf         bufferCounts
	stages      *metrics.StageSet
	probeAbsErr *metrics.Histogram
}

// snapMetrics builds the shard's snapshot; call only on its worker.
func (s *shard) snapMetrics() shardMetricsSnap {
	var snap shardMetricsSnap
	snap.m.Stats, snap.buf = s.statsSnapshot()

	st := s.tree.StatsSnapshot()
	if set := st.Stages; set != nil {
		snap.stages = metrics.NewStageSet(set.Classes())
		snap.stages.Merge(set)
	}

	cpu := s.tree.CPUSnapshot()
	snap.m.CPU = CPUBreakdown{
		RealWork: cpu.Get(metrics.CatRealWork),
		Sync:     cpu.Get(metrics.CatSync),
		NVMe:     cpu.Get(metrics.CatNVMe),
		Sched:    cpu.Get(metrics.CatSched),
		Other:    cpu.Get(metrics.CatOther),
		Total:    cpu.Total(),
	}

	if acc := s.policy.Accuracy(); acc != nil {
		snap.m.Probe = ProbeStats{Matched: acc.Matched(), Late: acc.Late(), Early: acc.Early(), Dropped: acc.Dropped(), Bias: acc.Bias()}
		snap.probeAbsErr = metrics.NewHistogram()
		snap.probeAbsErr.Merge(acc.AbsErr())
	}

	snap.m.TraceEvents = s.tracer.Emitted()
	return snap
}

// Metrics snapshots the full observability state, merged across shards:
// tagged fields fold as their tags say, stage and probe-error histograms
// merge, the probe bias is weighted by each shard's matched completions.
func (db *DB) Metrics() Metrics {
	snaps := make([]shardMetricsSnap, len(db.shards))
	for i, s := range db.shards {
		s := s
		i := i
		db.onWorker(s, func() { snaps[i] = s.snapMetrics() })
	}

	var m Metrics
	var buf bufferCounts
	var classes int
	var biasWeighted float64
	absErr := metrics.NewHistogram()
	for _, snap := range snaps {
		metrics.Fold(&m, &snap.m)
		buf.add(snap.buf)
		if snap.stages != nil && snap.stages.Classes() > classes {
			classes = snap.stages.Classes()
		}
		biasWeighted += float64(snap.m.Probe.Bias) * float64(snap.m.Probe.Matched)
		if snap.probeAbsErr != nil {
			absErr.Merge(snap.probeAbsErr)
		}
	}
	db.deriveStats(&m.Stats, buf)
	if m.Probe.Matched > 0 {
		m.Probe.Bias = time.Duration(biasWeighted / float64(m.Probe.Matched))
	}
	abs := metrics.Summarize(absErr)
	m.Probe.AbsErrMean, m.Probe.AbsErrP50, m.Probe.AbsErrP95, m.Probe.AbsErrP99 = abs.Mean, abs.P50, abs.P95, abs.P99

	if classes > 0 {
		merged := metrics.NewStageSet(classes)
		for _, snap := range snaps {
			merged.Merge(snap.stages)
		}
		for _, stage := range metrics.Stages() {
			for class := 0; class < merged.Classes(); class++ {
				if s := metrics.Summarize(merged.Histogram(stage, class)); s.Count > 0 {
					m.Stages = append(m.Stages, StageStats{stage.String(), kindName(class), s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max})
				}
			}
		}
	}
	return m
}

// kindName maps a stage-set class index back to the operation name (the
// tree uses its op kinds as stage classes).
func kindName(class int) string { return core.Kind(class).String() }

// WriteTrace exports the tracer's captured window (the most recent
// 65536 events per shard) as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each
// shard's snapshot is taken on its working thread, so it is consistent;
// identical workloads on identical clocks export byte-identical JSON.
// Each shard appears as its own process ("patree-shard0", ...) with the
// shard's thread lanes underneath. Returns ErrTracingDisabled when the
// DB was opened without Options.Trace.
func (db *DB) WriteTrace(w io.Writer) error {
	procs := db.TraceProcesses()
	if procs == nil {
		return ErrTracingDisabled
	}
	return db.shards[0].tracer.WriteChromeJSONProcs(w, procs)
}

// TraceNow reads the engine's trace clock (nanoseconds, monotonic). A
// serving tier running in the same process samples this clock for its
// own spans so a merged client/server/engine export shares one time
// axis. Usable whether or not tracing is on.
func (db *DB) TraceNow() int64 { return db.shards[0].tree.NowNanos() }

// TraceProcesses snapshots every shard's trace window as
// trace.Process entries ("patree-shard0", ...) carrying the engine's
// own code/class name tables, ready to merge with other emitters'
// processes in trace.WriteChromeJSONFlows. Each snapshot is taken on
// its shard's working thread, so it is consistent. Returns nil when the
// DB was opened without Options.Trace.
func (db *DB) TraceProcesses() []trace.Process {
	if db.shards[0].tracer == nil {
		return nil
	}
	codes, classes := core.TraceNames()
	procs := make([]trace.Process, len(db.shards))
	for i, s := range db.shards {
		s := s
		i := i
		db.onWorker(s, func() {
			procs[i] = trace.Process{
				Name:       fmt.Sprintf("patree-shard%d", i),
				Events:     s.tracer.Events(),
				CodeNames:  codes,
				ClassNames: classes,
			}
		})
	}
	return procs
}
