package patree

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/patree/patree/internal/metrics"
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
		db.Metrics().WritePrometheus(w) //nolint:errcheck // best-effort stream to the scraper
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

// WritePrometheus renders m in the Prometheus text exposition format:
// one series per declared counter and gauge, then the stage and
// probe-error summaries.
func (m Metrics) WritePrometheus(w io.Writer) error {
	var e metrics.Exposition
	e.Fields(&m)
	for _, s := range m.Stages {
		e.Summary("patree_stage_seconds", "Per-stage operation latency decomposition.",
			metrics.Summary{Count: s.Count, Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99}, true, "stage", s.Stage, "op", s.Op)
	}
	e.Summary("patree_probe_abs_err_seconds", "Absolute completion-prediction error.", metrics.Summary{
		Count: m.Probe.Matched, Mean: m.Probe.AbsErrMean, P50: m.Probe.AbsErrP50, P95: m.Probe.AbsErrP95, P99: m.Probe.AbsErrP99,
	}, true)
	_, err := e.WriteTo(w)
	return err
}

// FormatMetrics renders a human-readable multi-line summary of m, the
// text shown by pacli's stats/metrics commands: every declared counter
// and gauge as Name=value, then the stage latency table.
func FormatMetrics(m Metrics) string {
	var b strings.Builder
	metrics.WriteText(&b, m)
	if len(m.Stages) > 0 {
		fmt.Fprintf(&b, "%-11s %-7s %9s %11s %11s %11s %11s %11s\n",
			"stage", "op", "count", "mean", "p50", "p95", "p99", "max")
		for _, s := range m.Stages {
			fmt.Fprintf(&b, "%-11s %-7s %9d %11v %11v %11v %11v %11v\n",
				s.Stage, s.Op, s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
		}
	}
	return b.String()
}
