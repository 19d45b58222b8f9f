package patree

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// MetricsHandler returns an http.Handler that serves the DB's current
// Metrics in the Prometheus text exposition format (version 0.0.4), for
// mounting wherever the embedder serves diagnostics:
//
//	http.Handle("/metrics", db.MetricsHandler())
//
// Each request takes a fresh on-worker snapshot, so scraping a busy
// tree costs one pipeline no-op per scrape.
func (db *DB) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, db.Metrics())
	})
}

// PublishExpvar publishes the DB's Metrics under name in the process
// expvar registry (served at /debug/vars by net/http/pprof-style
// setups). Each read takes a fresh snapshot. Like expvar.Publish it
// panics if name is already registered, so use distinct names for
// multiple DBs.
func (db *DB) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return db.Metrics() }))
}

// seconds renders a duration as a Prometheus-style float seconds value.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}

func writePrometheus(w io.Writer, m Metrics) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP patree_ops_total Completed index operations.\n")
	p("# TYPE patree_ops_total counter\n")
	p("patree_ops_total %d\n", m.Ops)
	p("# HELP patree_keys Number of keys in the tree.\n")
	p("# TYPE patree_keys gauge\n")
	p("patree_keys %d\n", m.NumKeys)
	p("# HELP patree_height Tree height (1 = single leaf).\n")
	p("# TYPE patree_height gauge\n")
	p("patree_height %d\n", m.Height)
	p("# HELP patree_probes_total Completion-queue probes.\n")
	p("# TYPE patree_probes_total counter\n")
	p("patree_probes_total %d\n", m.Probes)
	p("# HELP patree_reads_issued_total NVMe read commands issued.\n")
	p("# TYPE patree_reads_issued_total counter\n")
	p("patree_reads_issued_total %d\n", m.ReadsIssued)
	p("# HELP patree_writes_issued_total NVMe write commands issued.\n")
	p("# TYPE patree_writes_issued_total counter\n")
	p("patree_writes_issued_total %d\n", m.WritesIssued)
	p("# HELP patree_admit_waits_total Admissions that hit a full inbox ring.\n")
	p("# TYPE patree_admit_waits_total counter\n")
	p("patree_admit_waits_total %d\n", m.AdmitWaits)
	p("# HELP patree_buffer_hit_ratio Page-buffer hit ratio.\n")
	p("# TYPE patree_buffer_hit_ratio gauge\n")
	p("patree_buffer_hit_ratio %g\n", m.BufferHit)
	p("# HELP patree_shards Number of shard workers serving the keyspace.\n")
	p("# TYPE patree_shards gauge\n")
	p("patree_shards %d\n", m.Shards)
	p("# HELP patree_devices Number of block devices the shards are spread over.\n")
	p("# TYPE patree_devices gauge\n")
	p("patree_devices %d\n", m.Devices)
	p("# HELP patree_throttle_waits_total Admissions held back by the hot-shard governor.\n")
	p("# TYPE patree_throttle_waits_total counter\n")
	p("patree_throttle_waits_total %d\n", m.ThrottleWaits)
	p("# HELP patree_worker_yields_total Idle worker passes that gave up the CPU.\n")
	p("# TYPE patree_worker_yields_total counter\n")
	p("patree_worker_yields_total %d\n", m.Yields)
	p("# HELP patree_worker_parks_total Idle yields that slept because no I/O was outstanding.\n")
	p("# TYPE patree_worker_parks_total counter\n")
	p("patree_worker_parks_total %d\n", m.Parks)
	p("# HELP patree_worker_yield_seconds_total Yield quanta the idle workers asked for.\n")
	p("# TYPE patree_worker_yield_seconds_total counter\n")
	p("patree_worker_yield_seconds_total %s\n", seconds(m.YieldTime))
	p("# HELP patree_worker_idle_spin_seconds_total Accounted CPU of idle passes that did not yield.\n")
	p("# TYPE patree_worker_idle_spin_seconds_total counter\n")
	p("patree_worker_idle_spin_seconds_total %s\n", seconds(m.IdleSpinTime))

	if m.JournalAppends > 0 {
		p("# HELP patree_journal_records_total Redo records appended to the WAL (Options.Journal).\n")
		p("# TYPE patree_journal_records_total counter\n")
		p("patree_journal_records_total %d\n", m.JournalAppends)
		p("# HELP patree_journal_leaf_records_total Of those, leaf records: one key's change, not a page image.\n")
		p("# TYPE patree_journal_leaf_records_total counter\n")
		p("patree_journal_leaf_records_total %d\n", m.JournalLeafRecords)
		p("# HELP patree_journal_bytes_total Framed bytes those records took in the log.\n")
		p("# TYPE patree_journal_bytes_total counter\n")
		p("patree_journal_bytes_total %d\n", m.JournalBytes)
		p("# HELP patree_journal_block_writes_total WAL block commands issued, tail rewrites included.\n")
		p("# TYPE patree_journal_block_writes_total counter\n")
		p("patree_journal_block_writes_total %d\n", m.JournalBlockWrites)
	}

	if m.ReadAheads > 0 {
		p("# HELP patree_read_ahead_total Scan read-ahead reads (Options.Pipelined): issued, and ops that parked on one.\n")
		p("# TYPE patree_read_ahead_total counter\n")
		p("patree_read_ahead_total{outcome=\"issued\"} %d\n", m.ReadAheads)
		p("patree_read_ahead_total{outcome=\"hit\"} %d\n", m.ReadAheadHits)
	}

	p("# HELP patree_stage_seconds Per-stage operation latency decomposition.\n")
	p("# TYPE patree_stage_seconds summary\n")
	for _, s := range m.Stages {
		l := fmt.Sprintf("stage=%q,op=%q", s.Stage, s.Op)
		p("patree_stage_seconds{%s,quantile=\"0.5\"} %s\n", l, seconds(s.P50))
		p("patree_stage_seconds{%s,quantile=\"0.95\"} %s\n", l, seconds(s.P95))
		p("patree_stage_seconds{%s,quantile=\"0.99\"} %s\n", l, seconds(s.P99))
		p("patree_stage_seconds_sum{%s} %s\n", l, seconds(time.Duration(s.Count)*s.Mean))
		p("patree_stage_seconds_count{%s} %d\n", l, s.Count)
	}

	p("# HELP patree_cpu_seconds_total Accounted working-thread CPU by Figure 9 category.\n")
	p("# TYPE patree_cpu_seconds_total counter\n")
	for _, c := range []struct {
		name string
		d    time.Duration
	}{
		{"real-work", m.CPU.RealWork}, {"sync", m.CPU.Sync}, {"nvme", m.CPU.NVMe},
		{"sched", m.CPU.Sched}, {"other", m.CPU.Other},
	} {
		p("patree_cpu_seconds_total{category=%q} %s\n", c.name, seconds(c.d))
	}

	p("# HELP patree_probe_predictions_total Completion predictions by outcome.\n")
	p("# TYPE patree_probe_predictions_total counter\n")
	p("patree_probe_predictions_total{outcome=\"late\"} %d\n", m.Probe.Late)
	p("patree_probe_predictions_total{outcome=\"early\"} %d\n", m.Probe.Early)
	p("patree_probe_predictions_total{outcome=\"dropped\"} %d\n", m.Probe.Dropped)
	p("# HELP patree_probe_bias_seconds Mean signed completion-prediction error.\n")
	p("# TYPE patree_probe_bias_seconds gauge\n")
	p("patree_probe_bias_seconds %s\n", seconds(m.Probe.Bias))
	p("# HELP patree_probe_abs_err_seconds Absolute completion-prediction error.\n")
	p("# TYPE patree_probe_abs_err_seconds summary\n")
	p("patree_probe_abs_err_seconds{quantile=\"0.5\"} %s\n", seconds(m.Probe.AbsErrP50))
	p("patree_probe_abs_err_seconds{quantile=\"0.95\"} %s\n", seconds(m.Probe.AbsErrP95))
	p("patree_probe_abs_err_seconds{quantile=\"0.99\"} %s\n", seconds(m.Probe.AbsErrP99))
	p("patree_probe_abs_err_seconds_sum %s\n", seconds(time.Duration(m.Probe.Matched)*m.Probe.AbsErrMean))
	p("patree_probe_abs_err_seconds_count %d\n", m.Probe.Matched)

	if m.Reader.Attempts+m.Reader.ScanAttempts > 0 {
		p("# HELP patree_reader_ops_total Optimistic (ConcurrentReads) read attempts by outcome.\n")
		p("# TYPE patree_reader_ops_total counter\n")
		p("patree_reader_ops_total{op=\"get\",outcome=\"served\"} %d\n", m.Reader.Served)
		p("patree_reader_ops_total{op=\"get\",outcome=\"fallback-pending\"} %d\n", m.Reader.FallbackPending)
		p("patree_reader_ops_total{op=\"get\",outcome=\"fallback-miss\"} %d\n", m.Reader.FallbackMiss)
		p("patree_reader_ops_total{op=\"get\",outcome=\"fallback-restarts\"} %d\n", m.Reader.FallbackRestarts)
		p("patree_reader_ops_total{op=\"scan\",outcome=\"served\"} %d\n", m.Reader.ScanServed)
		p("patree_reader_ops_total{op=\"scan\",outcome=\"fallback\"} %d\n", m.Reader.ScanAttempts-m.Reader.ScanServed)
		p("# HELP patree_reader_restarts_total Optimistic-read descent restarts (version changed underfoot).\n")
		p("# TYPE patree_reader_restarts_total counter\n")
		p("patree_reader_restarts_total %d\n", m.Reader.Restarts)
		p("# HELP patree_reader_escapes_total Right-link hops taken to escape concurrent splits.\n")
		p("# TYPE patree_reader_escapes_total counter\n")
		p("patree_reader_escapes_total %d\n", m.Reader.Escapes)
		p("# HELP patree_reader_latency_seconds Latency of served optimistic point reads.\n")
		p("# TYPE patree_reader_latency_seconds summary\n")
		p("patree_reader_latency_seconds{quantile=\"0.5\"} %s\n", seconds(m.Reader.Lat.Percentile(50)))
		p("patree_reader_latency_seconds{quantile=\"0.95\"} %s\n", seconds(m.Reader.Lat.Percentile(95)))
		p("patree_reader_latency_seconds{quantile=\"0.99\"} %s\n", seconds(m.Reader.Lat.Percentile(99)))
		p("patree_reader_latency_seconds_sum %s\n", seconds(m.Reader.Lat.Sum))
		p("patree_reader_latency_seconds_count %d\n", m.Reader.Lat.Count)
	}

	p("# HELP patree_trace_events_total Lifecycle trace events emitted.\n")
	p("# TYPE patree_trace_events_total counter\n")
	p("patree_trace_events_total %d\n", m.TraceEvents)
}

// FormatMetrics renders a human-readable multi-line summary of m, the
// text shown by pacli's stats/metrics commands.
func FormatMetrics(m Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d keys=%d height=%d probes=%d reads=%d writes=%d admitWaits=%d bufferHit=%.2f%%\n",
		m.Ops, m.NumKeys, m.Height, m.Probes, m.ReadsIssued, m.WritesIssued, m.AdmitWaits, 100*m.BufferHit)
	if m.Shards > 1 {
		fmt.Fprintf(&b, "shards: %d devices: %d", m.Shards, m.Devices)
		if m.ThrottleWaits > 0 {
			fmt.Fprintf(&b, " throttleWaits: %d", m.ThrottleWaits)
		}
		b.WriteString("\n")
	}
	if m.ReadAheads > 0 {
		fmt.Fprintf(&b, "read-ahead: issued=%d hits=%d\n", m.ReadAheads, m.ReadAheadHits)
	}
	if len(m.Stages) > 0 {
		fmt.Fprintf(&b, "%-11s %-7s %9s %11s %11s %11s %11s %11s\n",
			"stage", "op", "count", "mean", "p50", "p95", "p99", "max")
		for _, s := range m.Stages {
			fmt.Fprintf(&b, "%-11s %-7s %9d %11v %11v %11v %11v %11v\n",
				s.Stage, s.Op, s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
		}
	}
	tot := m.CPU.Total
	if tot > 0 {
		fmt.Fprintf(&b, "cpu: real-work=%v (%.1f%%) sync=%v (%.1f%%) nvme=%v (%.1f%%) sched=%v (%.1f%%) other=%v (%.1f%%)\n",
			m.CPU.RealWork, pct(m.CPU.RealWork, tot),
			m.CPU.Sync, pct(m.CPU.Sync, tot),
			m.CPU.NVMe, pct(m.CPU.NVMe, tot),
			m.CPU.Sched, pct(m.CPU.Sched, tot),
			m.CPU.Other, pct(m.CPU.Other, tot))
	}
	if m.Probe.Matched > 0 {
		fmt.Fprintf(&b, "probe model: matched=%d late=%d early=%d dropped=%d bias=%v |err| p50=%v p95=%v p99=%v\n",
			m.Probe.Matched, m.Probe.Late, m.Probe.Early, m.Probe.Dropped,
			m.Probe.Bias, m.Probe.AbsErrP50, m.Probe.AbsErrP95, m.Probe.AbsErrP99)
	}
	if m.Reader.Attempts > 0 || m.Reader.ScanAttempts > 0 {
		fmt.Fprintf(&b, "reader: get served=%d/%d scan served=%d/%d restarts=%d escapes=%d fallback pending=%d miss=%d restarts=%d lat mean=%v p99=%v\n",
			m.Reader.Served, m.Reader.Attempts, m.Reader.ScanServed, m.Reader.ScanAttempts,
			m.Reader.Restarts, m.Reader.Escapes,
			m.Reader.FallbackPending, m.Reader.FallbackMiss, m.Reader.FallbackRestarts,
			m.Reader.Lat.Mean(), m.Reader.Lat.Percentile(99))
	}
	if m.TraceEvents > 0 {
		fmt.Fprintf(&b, "trace: %d events emitted\n", m.TraceEvents)
	}
	return b.String()
}

func pct(part, total time.Duration) float64 {
	return 100 * float64(part) / float64(total)
}
