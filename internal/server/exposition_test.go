package server_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	patree "github.com/patree/patree"
	"github.com/patree/patree/client"
	"github.com/patree/patree/internal/server"
)

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelSet   = regexp.MustCompile(`^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\}$`)
)

// parseExposition checks body against the Prometheus text format
// (0.0.4) and returns every series ("name{labels}") with its family's
// type. It fails t on a sample line that does not parse as
// `name{labels} value`, a family with no TYPE line before its first
// sample or with two TYPE lines, and a family whose lines are split by
// another family's.
func parseExposition(t *testing.T, body string) map[string]string {
	t.Helper()
	types := map[string]string{}
	done := map[string]bool{}
	series := map[string]string{}
	cur := ""
	enter := func(fam string, line string) {
		if fam == cur {
			return
		}
		if done[fam] {
			t.Errorf("family %s appears twice (at %q)", fam, line)
		}
		done[cur] = true
		cur = fam
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, dup := types[name]; dup {
				t.Errorf("family %s has two TYPE lines", name)
			}
			types[name] = typ
			enter(name, line)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			enter(name, line)
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name, labels := m[1], m[2]
		if labels != "" && !labelSet.MatchString(labels) {
			t.Errorf("malformed labels in %q", line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Errorf("bad value in %q: %v", line, err)
		}
		fam := name
		if _, ok := types[fam]; !ok {
			for _, suf := range []string{"_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && types[base] == "summary" {
					fam = base
				}
			}
		}
		typ, ok := types[fam]
		if !ok {
			t.Errorf("sample %q precedes its family's TYPE line", line)
		}
		enter(fam, line)
		series[name+labels] = typ
	}
	return series
}

// parentSeries is every series the admin /metrics endpoint emitted
// before its metrics were declared as tagged fields, captured from a DB
// opened with Journal (scans reading ahead, as every Open's do) under
// TestAdminMetricsExposition's workload, so that every family once written
// only when non-zero is in it. Stage series for the waits that
// depend on timing (admit-wait, latch-wait) and for pipeline no-ops are
// left out, and so are the completion-prediction series
// (patree_probe_*): the serving worker runs no model to score.
var parentSeries = func() map[string]string {
	s := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(`
counter patree_admit_waits_total
gauge patree_buffer_hit_ratio
counter patree_cpu_seconds_total{category="nvme"}
counter patree_cpu_seconds_total{category="other"}
counter patree_cpu_seconds_total{category="real-work"}
counter patree_cpu_seconds_total{category="sched"}
counter patree_cpu_seconds_total{category="sync"}
gauge patree_devices
gauge patree_height
counter patree_journal_block_writes_total
counter patree_journal_bytes_total
counter patree_journal_leaf_records_total
counter patree_journal_records_total
gauge patree_keys
counter patree_ops_total
counter patree_probes_total
counter patree_read_ahead_total{outcome="hit"}
counter patree_read_ahead_total{outcome="issued"}
counter patree_reads_issued_total
counter patree_server_bad_frames_total
counter patree_server_batch_ops_total
summary patree_server_burst_ops_count
summary patree_server_burst_ops{quantile="0.5"}
summary patree_server_burst_ops{quantile="0.99"}
gauge patree_server_busy_rate
counter patree_server_busy_total
counter patree_server_bytes_in_total
counter patree_server_bytes_out_total
counter patree_server_connections_accepted_total
gauge patree_server_connections_active
counter patree_server_ops_total
counter patree_server_responses_total{status="ok"}
counter patree_server_wire_batches_total
gauge patree_shards
counter patree_trace_events_total
counter patree_worker_idle_spin_seconds_total
counter patree_worker_yield_seconds_total
counter patree_worker_yields_total
counter patree_writes_issued_total
`), "\n") {
		typ, name, _ := strings.Cut(line, " ")
		s[name] = typ
	}
	summary := func(fam, labels string, quantiles ...string) {
		for _, q := range quantiles {
			s[fam+"{"+labels+`,quantile="`+q+`"}`] = "summary"
		}
		s[fam+"_count{"+labels+"}"] = "summary"
	}
	for _, stage := range []string{"inbox", "queue-wait", "io-wait", "deliver", "total"} {
		for _, op := range []string{"search", "range", "insert", "update", "delete", "sync"} {
			l := `stage="` + stage + `",op="` + op + `"`
			summary("patree_stage_seconds", l, "0.5", "0.95", "0.99")
			s["patree_stage_seconds_sum{"+l+"}"] = "summary"
		}
	}
	for _, kind := range []string{"put", "get", "update", "delete", "scan", "sync", "batch"} {
		summary("patree_server_wire_latency_seconds", `kind="`+kind+`"`, "0.5", "0.99")
	}
	return s
}()

// TestAdminMetricsExposition scrapes paserve's admin /metrics (engine
// families, then patree_server_*) after a mixed wire workload and checks
// that it is valid exposition text, that every series the endpoint
// emitted before is still there with the same type, and that the
// device-error, checkpoint and buffer-eviction counters are exported.
func TestAdminMetricsExposition(t *testing.T) {
	addr, db, srv, stop := startTracedServer(t,
		patree.Options{DeviceBlocks: 1 << 14, BufferPages: 4, Journal: true},
		server.Options{})
	defer stop()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	val := bytes.Repeat([]byte("v"), 100)
	for k := uint64(1); k <= 2000; k++ {
		if err := c.Put(k, val); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if pairs, err := c.Scan(0, ^uint64(0), 0); err != nil || len(pairs) != 2000 {
		t.Fatalf("scan: %d pairs, %v", len(pairs), err)
	}
	for k := uint64(1); k <= 200; k++ {
		if _, _, err := c.Get(k * 7); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if _, err := c.Update(5, val); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, err := c.Delete(6); err != nil {
		t.Fatalf("delete: %v", err)
	}
	b := c.NewBatch()
	b.Put(7, val)
	b.Get(8)
	if err := b.Commit(); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if err := b.Wait(); err != nil {
		t.Fatalf("batch: %v", err)
	}
	b.Release()
	if err := c.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// Embedded reads take the optimistic path the wire tier does not.
	for k := uint64(1); k <= 200; k++ {
		if _, _, err := db.Get(k); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if _, err := db.Scan(1, 40, 0); err != nil {
		t.Fatalf("scan: %v", err)
	}

	ts := httptest.NewServer(srv.AdminHandler(server.AdminConfig{EngineMetrics: db.MetricsHandler()}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := parseExposition(t, string(body))

	want := map[string]string{
		"patree_io_errors_total":                       "counter",
		"patree_io_retries_total":                      "counter",
		"patree_checkpoints_total":                     "counter",
		"patree_journal_write_commands_total":          "counter",
		`patree_buffer_evictions_total{state="clean"}`: "counter",
		`patree_buffer_evictions_total{state="dirty"}`: "counter",
		"patree_buffer_admission_rejects_total":        "counter",
	}
	for s, typ := range parentSeries {
		want[s] = typ
	}
	var missing []string
	for s, typ := range want {
		if got[s] != typ {
			missing = append(missing, s+" "+typ+" (got "+strconv.Quote(got[s])+")")
		}
	}
	sort.Strings(missing)
	for _, s := range missing {
		t.Errorf("series missing or retyped: %s", s)
	}
	for s := range got {
		if strings.HasPrefix(s, "patree_probe_") {
			t.Errorf("unexpected series %s: nothing on the serving path predicts completions", s)
		}
	}
}
