package patree

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// obsLoad pushes n mixed operations through the public batch API — the
// shape a metrics-scraping embedder sees.
func obsLoad(t testing.TB, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; {
		b := db.NewBatch()
		for j := 0; j < 64 && i < n; j++ {
			k := uint64(i) % 2048
			switch i % 4 {
			case 0, 1:
				b.Get(k)
			case 2:
				b.Put(k, []byte("observability-payload"))
			default:
				b.Delete(k)
			}
			i++
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
}

// TestMetricsUnderConcurrentLoad hammers the DB from several writer
// goroutines while others poll Stats() and Metrics() — the scrape-while-
// busy pattern. Run under -race this is the data-race check for the
// on-worker snapshot path.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	db := openTest(t, Options{DeviceBlocks: 1 << 16})
	for i := uint64(0); i < 2048; i++ {
		if err := db.Put(i, []byte("seed-value")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obsLoad(t, db, 4096)
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				st := db.Stats()
				m := db.Metrics()
				if m.Ops < st.Ops {
					t.Errorf("later snapshot went backwards: %d < %d", m.Ops, st.Ops)
				}
			}
		}()
	}
	wg.Wait()

	m := db.Metrics()
	if m.Ops == 0 || len(m.Stages) == 0 {
		t.Fatalf("empty metrics after load: ops=%d stages=%d", m.Ops, len(m.Stages))
	}
	for _, s := range m.Stages {
		if s.Count == 0 {
			t.Errorf("%s/%s reported with zero count", s.Stage, s.Op)
		}
		if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
			t.Errorf("%s/%s quantiles not monotone: p50=%v p95=%v p99=%v max=%v",
				s.Stage, s.Op, s.P50, s.P95, s.P99, s.Max)
		}
	}
	if m.CPU.Total <= 0 {
		t.Errorf("no CPU accounted: %+v", m.CPU)
	}
}

// TestBufferEvictionsByState checks that a buffer smaller than the
// working set reports its evictions split by page state: writes into it
// push out dirty pages (each a write-back), and a read sweep after a
// Sync pushes out clean ones.
func TestBufferEvictionsByState(t *testing.T) {
	db := openTest(t, Options{BufferPages: 8, Journal: true})
	for i := uint64(0); i < 2048; i++ {
		if err := db.Put(i, []byte("eviction-payload")); err != nil {
			t.Fatal(err)
		}
	}
	dirty := db.Stats().EvictionsDirty
	if dirty == 0 {
		t.Fatal("writes through an 8-page buffer evicted no dirty page")
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	for i := uint64(0); i < 2048; i += 16 {
		if _, _, err := db.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if m.EvictionsClean <= before.EvictionsClean || m.EvictionsDirty != before.EvictionsDirty {
		t.Fatalf("read sweep after Sync: clean evictions %d -> %d, dirty %d -> %d; want only clean ones to grow",
			before.EvictionsClean, m.EvictionsClean, before.EvictionsDirty, m.EvictionsDirty)
	}
}

// TestWriteTraceJSON checks the public trace path end to end: Open with
// tracing, run ops, export, and parse the Chrome trace JSON.
func TestWriteTraceJSON(t *testing.T) {
	db := openTest(t, Options{DeviceBlocks: 1 << 16, Trace: true})
	obsLoad(t, db, 2048)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if doc.Unit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	var slices int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M", "i":
		case "X":
			slices++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if slices == 0 {
		t.Fatal("trace contains no duration slices")
	}
	if m := db.Metrics(); m.TraceEvents == 0 {
		t.Fatal("Metrics.TraceEvents is zero with tracing on")
	}
}

func TestWriteTraceDisabled(t *testing.T) {
	db := openTest(t, Options{})
	if err := db.WriteTrace(&bytes.Buffer{}); err != ErrTracingDisabled {
		t.Fatalf("err = %v, want ErrTracingDisabled", err)
	}
	if m := db.Metrics(); m.TraceEvents != 0 {
		t.Fatalf("TraceEvents = %d with tracing off", m.TraceEvents)
	}
}

// TestMetricsHandlerServesPrometheus smoke-tests the text exposition.
func TestMetricsHandlerServesPrometheus(t *testing.T) {
	db := openTest(t, Options{DeviceBlocks: 1 << 16})
	obsLoad(t, db, 1024)
	rec := httptest.NewRecorder()
	db.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE patree_ops_total counter",
		"patree_stage_seconds{",
		"patree_cpu_seconds_total{category=",
		"# TYPE patree_worker_yields_total counter",
		"patree_worker_idle_spin_seconds_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(body, "patree_probe_") {
		t.Error("exposition has completion-prediction series; the serving worker runs no model")
	}
	if m := db.Metrics(); m.Probe != (ProbeStats{}) {
		t.Errorf("Metrics.Probe = %+v after traffic, want zero", m.Probe)
	}
	// Prometheus text format: every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "patree_") || !strings.Contains(line, " ") {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// TestTraceOffAllocsUnchanged is the guard for the observability PR's
// core promise: with Options.Trace off, the always-on stage metrics add
// no allocations to the cached-Get batch hot path (~1 alloc/op for the
// completion handle).
func TestTraceOffAllocsUnchanged(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	db := openTest(t, Options{DeviceBlocks: 1 << 16})
	for i := uint64(0); i < 2048; i++ {
		if err := db.Put(i, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	var i uint64
	got := testing.AllocsPerRun(200, func() {
		b := db.NewBatch()
		for j := 0; j < benchWindow; j++ {
			b.Get(i % 2048)
			i++
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	// benchWindow cached gets cost ~1 alloc each (the result copy); allow
	// 1.5x headroom for pool misses before calling it a regression.
	if perOp := got / benchWindow; perOp > 1.5 {
		t.Fatalf("cached batched Get costs %.2f allocs/op with tracing off; budget 1.5", perOp)
	}
}
