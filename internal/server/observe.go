// Server-side observability: always-on wire metrics, sampled
// request-scoped spans, and the slow-op log.
//
// The metrics path is allocation-free per operation: counters are
// atomics, latency observations land in lazily-allocated log-bucketed
// histograms behind one mutex (internal/metrics.Histogram is
// single-threaded by design), and timestamps ride in the pooled
// burstState's requests next to the decoded ops. Span tracing reuses the
// same ring tracer as the engine, wrapped for concurrent emitters, and
// costs nothing when no frame carries a span.
package server

import (
	"io"
	"sort"
	"sync"
	"time"

	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/proto"
	"github.com/patree/patree/internal/trace"
)

// Server trace event codes. Code 1 is the span anchor the stitcher
// looks for (trace.SpanCodeAdmit): one slice per sampled op covering
// burst-flush start → admission, which includes any wait for ring room.
// Every code's Arg is the request id.
const (
	stRecv    = iota // instant: request frame decoded (Seq = span)
	stAdmit          // slice: flush start → admitted (Seq = span)
	stBusy           // instant: try batch refused with StatusBusy (Seq = span)
	stRespond        // slice: response encode → enqueued to the writer (Seq = span)
)

var serverCodeNames = []string{"recv", trace.SpanCodeAdmit, "busy", trace.SpanCodeRespond}

const (
	numWireKinds    = len(proto.KindNames) // trace class = bare wire kind
	numWireStatuses = 8                    // proto.StatusOK..StatusInternal
)

var wireStatusNames = []string{
	"ok", "busy", "closed", "device-failed", "batch-aborted",
	"too-large", "bad-request", "internal",
}

// srvMetrics is the always-on wire instrumentation. One per Server,
// shared by every connection; the mutex is uncontended relative to the
// syscalls surrounding each observation.
type srvMetrics struct {
	mu        sync.Mutex
	latKind   [numWireKinds]*metrics.Histogram    // request latency by wire kind
	latStatus [numWireStatuses]*metrics.Histogram // request latency by response status
	burst     *metrics.Histogram                  // ops per admitted read burst
	status    [numWireStatuses]uint64             // responses sent by status
}

// recordBurst notes one read burst's size at flush.
func (m *srvMetrics) recordBurst(n int) {
	m.mu.Lock()
	if m.burst == nil {
		m.burst = metrics.NewHistogram()
	}
	m.burst.Record(time.Duration(n))
	m.mu.Unlock()
}

// recordOp notes one finished request whose response frame bypasses
// sendStatus: its wire latency (arrival → response enqueued) bucketed
// by kind and by status, plus the status count.
func (m *srvMetrics) recordOp(kind, status uint8, d time.Duration) {
	m.recordLatency(kind, status, d)
	m.recordStatus(status)
}

// recordLatency records the latency histograms only; the status count
// is taken by the sendStatus path the frame travels through.
func (m *srvMetrics) recordLatency(kind, status uint8, d time.Duration) {
	if int(kind) >= numWireKinds {
		kind = 0
	}
	if status >= numWireStatuses {
		status = numWireStatuses - 1
	}
	m.mu.Lock()
	h := m.latKind[kind]
	if h == nil {
		h = metrics.NewHistogram()
		m.latKind[kind] = h
	}
	h.Record(d)
	h = m.latStatus[status]
	if h == nil {
		h = metrics.NewHistogram()
		m.latStatus[status] = h
	}
	h.Record(d)
	m.mu.Unlock()
}

// recordStatus counts a response that has no measured arrival (bad
// frames, terminal refusals answered from the read loop).
func (m *srvMetrics) recordStatus(status uint8) {
	if status >= numWireStatuses {
		status = numWireStatuses - 1
	}
	m.mu.Lock()
	m.status[status]++
	m.mu.Unlock()
}

// HistSummary is the JSON-safe headline view of one histogram.
type HistSummary = metrics.Summary

// Metrics is a snapshot of the server's wire instrumentation: the
// lifetime counters plus the always-on latency and burst histograms.
// All fields are JSON-safe for the /statsz admin endpoint.
type Metrics struct {
	Stats
	BytesIn       uint64                 `json:"bytes_in" metric:"patree_server_bytes_in_total counter sum" help:"Request bytes read."`
	BytesOut      uint64                 `json:"bytes_out" metric:"patree_server_bytes_out_total counter sum" help:"Response bytes written."`
	BurstSize     HistSummary            `json:"burst_size"`
	WireLatency   map[string]HistSummary `json:"wire_latency"`   // by request kind
	StatusLatency map[string]HistSummary `json:"status_latency"` // by response status
	StatusCounts  map[string]uint64      `json:"status_counts"`
	// BusyRate is Busy / (Ops + BatchOps + Busy): the fraction of
	// admissions refused with StatusBusy. Only a try batch can be
	// refused, so it reads 0 for a client that never calls TryCommit.
	BusyRate float64 `json:"busy_rate" metric:"patree_server_busy_rate gauge derived" help:"Fraction of admissions refused with StatusBusy (try batches only)."`
}

// Metrics snapshots the wire instrumentation. Safe to call from any
// goroutine, concurrently with live traffic.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		Stats:         s.Stats(),
		BytesIn:       s.bytesIn.Load(),
		BytesOut:      s.bytesOut.Load(),
		WireLatency:   map[string]HistSummary{},
		StatusLatency: map[string]HistSummary{},
		StatusCounts:  map[string]uint64{},
	}
	s.met.mu.Lock()
	m.BurstSize = metrics.Summarize(s.met.burst)
	for k := 1; k < numWireKinds; k++ {
		if h := s.met.latKind[k]; h != nil && h.Count() > 0 {
			m.WireLatency[proto.KindNames[k]] = metrics.Summarize(h)
		}
	}
	for st := 0; st < numWireStatuses; st++ {
		if h := s.met.latStatus[st]; h != nil && h.Count() > 0 {
			m.StatusLatency[wireStatusNames[st]] = metrics.Summarize(h)
		}
		if n := s.met.status[st]; n > 0 {
			m.StatusCounts[wireStatusNames[st]] = n
		}
	}
	s.met.mu.Unlock()
	if att := m.Ops + m.BatchOps + m.Busy; att > 0 {
		m.BusyRate = float64(m.Busy) / float64(att)
	}
	return m
}

// WritePrometheus renders a fresh snapshot in Prometheus text
// exposition format under the patree_server_* namespace, for the
// paserve admin endpoint.
func (s *Server) WritePrometheus(w io.Writer) error { return s.Metrics().WritePrometheus(w) }

// WritePrometheus renders m in Prometheus text exposition format.
func (m Metrics) WritePrometheus(w io.Writer) error {
	var e metrics.Exposition
	e.Fields(&m)
	e.Summary("patree_server_burst_ops", "Operations per admitted read burst.", m.BurstSize, false)
	for _, st := range sortedKeys(m.StatusCounts) {
		e.Add("patree_server_responses_total", "counter", "Responses sent by status.", m.StatusCounts[st], "status", st)
	}
	for _, kind := range sortedKeys(m.WireLatency) {
		e.Summary("patree_server_wire_latency_seconds", "Request latency from arrival to response enqueued, by kind.", m.WireLatency[kind], true, "kind", kind)
	}
	_, err := e.WriteTo(w)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TraceProcess snapshots the server's sampled span events as one
// trace.Process (default name "server"), ready to merge with the
// client's and engine's processes. Nil when Options.Trace is off.
func (s *Server) TraceProcess(name string) *trace.Process {
	if s.tr == nil {
		return nil
	}
	if name == "" {
		name = "server"
	}
	return &trace.Process{
		Name:       name,
		Events:     s.tr.Events(),
		CodeNames:  serverCodeNames,
		ClassNames: proto.KindNames[:],
	}
}

// slowOp logs one request that blew past Options.SlowOp with its full
// server-side stage breakdown.
func (s *Server) slowOp(id, span uint64, kind, status uint8, arrival, flushed, admitted, responded int64) {
	if int(kind) >= numWireKinds {
		kind = 0
	}
	if status >= numWireStatuses {
		status = numWireStatuses - 1
	}
	s.logf("patree/server: slow op: kind=%s id=%d span=%d status=%s total=%v stage_read=%v stage_admit=%v stage_engine_respond=%v",
		proto.KindNames[kind], id, span, wireStatusNames[status],
		time.Duration(responded-arrival),
		time.Duration(flushed-arrival),
		time.Duration(admitted-flushed),
		time.Duration(responded-admitted))
}
