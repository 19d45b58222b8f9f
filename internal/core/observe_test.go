package core

import (
	"bytes"
	"testing"

	"github.com/patree/patree/internal/metrics"
)

// obsWorkload drives a deterministic mixed workload through a rig: bulk
// inserts (forcing splits and write-backs), interleaved searches,
// deletes and a batch of concurrent ops (exercising queueing and latch
// contention).
func obsWorkload(r *rig) {
	for k := uint64(0); k < 400; k++ {
		r.insert(k*7, "value-padding-padding")
	}
	ops := make([]*Op, 0, 64)
	for k := uint64(0); k < 32; k++ {
		ops = append(ops, NewSearch(k*7, nil))
		ops = append(ops, NewInsert(k*7, []byte("overwritten-value"), nil))
	}
	r.doAll(ops)
	for k := uint64(0); k < 16; k++ {
		r.delete(k * 7)
	}
}

func TestStageMetricsRecorded(t *testing.T) {
	r := newRig(t, Config{Persistence: StrongPersistence, BufferPages: 64})
	obsWorkload(r)

	st := r.tree.StatsSnapshot()
	if st.Stages == nil {
		t.Fatal("Stats.Stages not allocated")
	}
	// Every completed op must land in the total, inbox and queue-wait
	// stages of its kind.
	for _, kind := range []Kind{KindSearch, KindInsert, KindDelete} {
		completed := st.Completed[kind]
		if completed == 0 {
			t.Fatalf("no completed %v ops", kind)
		}
		for _, stage := range []metrics.Stage{metrics.StageInbox, metrics.StageQueueWait, metrics.StageTotal, metrics.StageDeliver} {
			h := st.Stages.Histogram(stage, int(kind))
			if h == nil || h.Count() != completed {
				got := uint64(0)
				if h != nil {
					got = h.Count()
				}
				t.Errorf("%v/%v: recorded %d, want %d", stage, kind, got, completed)
			}
		}
	}
	// The workload misses the buffer (64 pages, 400 keys), so inserts
	// must have accumulated I/O wait, and the total must dominate it.
	io := st.Stages.Histogram(metrics.StageIOWait, int(KindInsert))
	if io == nil || io.Count() == 0 {
		t.Fatal("no io-wait recorded for inserts despite strong persistence")
	}
	tot := st.Stages.Histogram(metrics.StageTotal, int(KindInsert))
	if tot.Percentile(50) < io.Percentile(50) {
		// io-wait sums sequential waits of one op, total spans them all.
		t.Errorf("median total %v below median io-wait %v", tot.Percentile(50), io.Percentile(50))
	}
}

func TestStageMetricsSurviveReset(t *testing.T) {
	r := newRig(t, Config{Persistence: StrongPersistence, BufferPages: 64})
	r.insert(1, "x")
	r.tree.ResetStats()
	st := r.tree.StatsSnapshot()
	if st.Stages == nil {
		t.Fatal("ResetStats dropped the stage set")
	}
	if h := st.Stages.Histogram(metrics.StageTotal, int(KindInsert)); h != nil && h.Count() != 0 {
		t.Fatalf("stage histogram not cleared: %d", h.Count())
	}
	r.insert(2, "y")
	st = r.tree.StatsSnapshot()
	if h := st.Stages.Histogram(metrics.StageTotal, int(KindInsert)); h == nil || h.Count() != 1 {
		t.Fatal("stage recording broken after ResetStats")
	}
}

// TestTraceDeterminism runs the same workload on two same-seed rigs with
// tracing enabled and requires byte-identical Chrome JSON exports — the
// property that makes traces usable as regression artifacts, and a
// strong check that tracing is pure observation (any perturbation of the
// virtual-time schedule would shift timestamps).
func TestTraceDeterminism(t *testing.T) {
	run := func() []byte {
		tr := NewTracer(1 << 16)
		cfg := Config{Persistence: StrongPersistence, BufferPages: 64, Tracer: tr}
		r := newRig(t, cfg)
		obsWorkload(r)
		var buf bytes.Buffer
		if err := tr.WriteChromeJSON(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed runs diverged: %d vs %d bytes", len(a), len(b))
	}
}

// TestTraceObservationOnly verifies tracing changes no simulated
// outcome: stats with the tracer on equal stats with it off.
func TestTraceObservationOnly(t *testing.T) {
	run := func(tr bool) Stats {
		cfg := Config{Persistence: StrongPersistence, BufferPages: 64}
		if tr {
			cfg.Tracer = NewTracer(1 << 16)
		}
		r := newRig(t, cfg)
		obsWorkload(r)
		return r.tree.StatsSnapshot()
	}
	off, on := run(false), run(true)
	if off.Completed != on.Completed || off.Probes != on.Probes ||
		off.ReadsIssued != on.ReadsIssued || off.WritesIssued != on.WritesIssued ||
		off.Yields != on.Yields {
		t.Fatalf("tracer perturbed the schedule:\noff: %+v\non:  %+v", off, on)
	}
	if lo, ln := totalLatency(off), totalLatency(on); lo.Mean() != ln.Mean() || lo.Max() != ln.Max() {
		t.Fatalf("tracer perturbed latencies: off mean=%v max=%v, on mean=%v max=%v",
			lo.Mean(), lo.Max(), ln.Mean(), ln.Max())
	}
}

func TestTracerCapturesLifecycle(t *testing.T) {
	tr := NewTracer(1 << 16)
	r := newRig(t, Config{Persistence: StrongPersistence, BufferPages: 64, Tracer: tr})
	obsWorkload(r)
	if got := r.tree.Tracer(); got != tr {
		t.Fatal("Tracer() accessor mismatch")
	}
	counts := map[uint16]int{}
	for _, e := range tr.Events() {
		counts[e.Code]++
	}
	// tcDeliver is absent by design here: completion callbacks consume no
	// virtual time in the simulation, and zero-length slices are elided.
	for _, code := range []uint16{tcInbox, tcQueueWait, tcIORead, tcIOWrite, tcOp} {
		if counts[code] == 0 {
			t.Errorf("no %q events captured", traceCodeNames[code])
		}
	}
	// Every op slice must carry a non-zero seq and a valid kind class.
	for _, e := range tr.Events() {
		if e.Code == tcOp {
			if e.Seq == 0 {
				t.Fatal("op event without sequence number")
			}
			if int(e.Class) >= numKinds {
				t.Fatalf("op event with bad class %d", e.Class)
			}
		}
	}
}
