package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/client"
	"github.com/patree/patree/internal/server"
	"github.com/patree/patree/internal/trace"
)

// startTracedServer is startServer plus the DB handle, for tests that
// stitch engine processes into the export.
func startTracedServer(t *testing.T, dbOpts patree.Options, srvOpts server.Options) (string, *patree.DB, *server.Server, func()) {
	t.Helper()
	db, err := patree.Open(dbOpts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	srvOpts.TraceNow = db.TraceNow
	srv := server.New(db, srvOpts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), db, srv, func() {
		srv.Close()
		db.Close()
	}
}

// countByName counts p's events whose code resolves to name through the
// process's own code-name table.
func countByName(p *trace.Process, name string) int {
	idx := -1
	for i, n := range p.CodeNames {
		if n == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0
	}
	n := 0
	for _, e := range p.Events {
		if int(e.Code) == idx {
			n++
		}
	}
	return n
}

// waitSampled drives single ops until the client's trace shows a
// request span — the hello response is pipelined, so sampling engages
// only once negotiation lands.
func waitSampled(t *testing.T, c *client.Conn) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for k := uint64(0); ; k++ {
		if err := c.Put(k, []byte("warm")); err != nil {
			t.Fatalf("put: %v", err)
		}
		if tp := c.TraceProcess(""); tp != nil && countByName(tp, trace.SpanCodeRequest) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sampling never engaged: trace negotiation did not complete")
		}
	}
}

// TestEndToEndTrace drives the full wire path with tracing on in every
// tier and checks the acceptance property of the merged export: one
// trace whose flow arrows link the client's request span to the
// server's admit span to the engine operation on some shard.
func TestEndToEndTrace(t *testing.T) {
	addr, db, srv, stop := startTracedServer(t,
		patree.Options{Shards: 2, Trace: true},
		server.Options{Trace: true})
	defer stop()

	c, err := client.Dial(addr, client.Options{
		Trace: true, SampleEvery: 1, TraceNow: db.TraceNow,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	waitSampled(t, c)

	for k := uint64(0); k < 64; k++ {
		if err := c.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatalf("put: %v", err)
		}
		if _, _, err := c.Get(k); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	b := c.NewBatch()
	for k := uint64(100); k < 116; k++ {
		b.Put(k, []byte("batched"))
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("batch: %v", err)
	}
	b.Wait()
	b.Release()

	cp := c.TraceProcess("")
	sp := srv.TraceProcess("")
	if cp == nil || sp == nil {
		t.Fatal("trace processes missing despite Options.Trace")
	}
	procs := append([]trace.Process{*cp, *sp}, db.TraceProcesses()...)
	if len(procs) != 4 { // client + server + 2 shards
		t.Fatalf("got %d processes, want 4", len(procs))
	}

	if n := countByName(cp, trace.SpanCodeRequest); n < 64 {
		t.Fatalf("client request spans = %d, want >= 64", n)
	}
	if n := countByName(sp, trace.SpanCodeAdmit); n == 0 {
		t.Fatal("server emitted no admit spans")
	}
	links := 0
	for i := 2; i < len(procs); i++ {
		links += countByName(&procs[i], trace.SpanCodeLink)
	}
	if links == 0 {
		t.Fatal("engine emitted no span link instants")
	}

	flows := trace.Stitch(procs)
	if len(flows) == 0 {
		t.Fatal("stitcher produced no flows")
	}
	full := 0
	for _, f := range flows {
		if len(f.Steps) == 1 {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no client→server→engine chain survived stitching")
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeJSONFlows(&buf, procs, flows); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"s"`, `"ph":"t"`, `"ph":"f"`, `"bp":"e"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged export missing %s", want)
		}
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	t.Logf("merged trace: %d events, %d flows (%d full chains)", len(doc.TraceEvents), len(flows), full)
}

// TestTraceNegotiationOff pins the compat contract: a tracing client
// against a server that answers hello without the trace flag (tracing
// disabled) must never sample, so every frame stays plain v0.
func TestTraceNegotiationOff(t *testing.T) {
	addr, _, stop := startServer(t, patree.Options{}, server.Options{})
	defer stop()
	c, err := client.Dial(addr, client.Options{Trace: true, SampleEvery: 1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for k := uint64(0); k < 50; k++ {
		if err := c.Put(k, []byte("x")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	tp := c.TraceProcess("")
	if tp == nil {
		t.Fatal("TraceProcess nil with Options.Trace on")
	}
	if len(tp.Events) != 0 {
		t.Fatalf("client sampled %d events against a non-tracing server", len(tp.Events))
	}
}

// TestSlowOpLog pins the structured slow-op log: with a 1ns threshold
// every request is slow, and each line carries the stage breakdown.
func TestSlowOpLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	addr, _, _, stop := startTracedServer(t,
		patree.Options{},
		server.Options{SlowOp: time.Nanosecond, Logf: logf})
	defer stop()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Put(1, []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		var slow string
		for _, l := range lines {
			if strings.Contains(l, "slow op") {
				slow = l
				break
			}
		}
		mu.Unlock()
		if slow != "" {
			for _, want := range []string{"kind=put", "status=ok", "stage_read=", "stage_admit=", "stage_engine_respond="} {
				if !strings.Contains(slow, want) {
					t.Fatalf("slow-op line missing %s: %q", want, slow)
				}
			}
			if strings.Contains(slow, "attempts=") {
				t.Fatalf("slow-op line still counts admission attempts: %q", slow)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no slow-op line logged")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdminEndpoints exercises the admin mux end to end over HTTP:
// merged Prometheus exposition, the /statsz JSON document pacli reads,
// and /trace's disabled-vs-enabled behavior.
func TestAdminEndpoints(t *testing.T) {
	addr, db, srv, stop := startTracedServer(t,
		patree.Options{Trace: true},
		server.Options{Trace: true})
	defer stop()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for k := uint64(0); k < 32; k++ {
		if err := c.Put(k, []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	c.Close()

	ts := httptest.NewServer(srv.AdminHandler(server.AdminConfig{
		EngineMetrics: db.MetricsHandler(),
		EngineStats:   func() any { return db.Metrics() },
		EngineProcs:   db.TraceProcesses,
	}))
	defer ts.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"patree_ops_total", "patree_server_ops_total", "patree_server_bytes_in_total", "patree_server_burst_ops_count"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}

	code, body = get("/statsz")
	if code != http.StatusOK {
		t.Fatalf("/statsz: %d", code)
	}
	var doc struct {
		Server server.Metrics  `json:"server"`
		Engine json.RawMessage `json:"engine"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statsz is not valid JSON: %v", err)
	}
	if doc.Server.Ops != 32 {
		t.Fatalf("/statsz server ops = %d, want 32", doc.Server.Ops)
	}
	if len(doc.Engine) == 0 {
		t.Fatal("/statsz missing engine snapshot")
	}
	if len(doc.Server.WireLatency) == 0 || doc.Server.BurstSize.Count == 0 {
		t.Fatalf("/statsz missing histograms: %+v", doc.Server)
	}

	if code, _ = get("/trace"); code != http.StatusOK {
		t.Fatalf("/trace: %d", code)
	}
	if code, _ = get("/debug/vars"); code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", code)
	}

	// A server without tracing must refuse /trace rather than emit an
	// empty document.
	db2, err := patree.Open(patree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	srv2 := server.New(db2, server.Options{})
	ts2 := httptest.NewServer(srv2.AdminHandler(server.AdminConfig{}))
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/trace with tracing off: %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentObservability hammers every read-side observability
// surface — server metrics, Prometheus rendering, engine metrics, trace
// snapshots and exports — concurrently with live TCP traffic. Run under
// -race this pins that observation never tears the serving path.
func TestConcurrentObservability(t *testing.T) {
	addr, db, srv, stop := startTracedServer(t,
		patree.Options{Shards: 2, Trace: true},
		server.Options{Trace: true, SlowOp: 50 * time.Millisecond})
	defer stop()

	pool, err := client.DialPool(addr, 2, client.Options{
		Trace: true, SampleEvery: 1, TraceNow: db.TraceNow,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pool.Close()

	const (
		writers = 4
		opsEach = 200
		readers = 3
	)
	var writeWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < opsEach; i++ {
				k := uint64(w*opsEach + i)
				if err := pool.Put(k, []byte("cv")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, _, err := pool.Get(k); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	var readWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				srv.Metrics()
				if err := srv.WritePrometheus(io.Discard); err != nil {
					t.Errorf("prometheus: %v", err)
					return
				}
				db.Metrics()
				if err := db.WriteTrace(io.Discard); err != nil {
					t.Errorf("trace: %v", err)
					return
				}
				srv.TraceProcess("")
				procs := append(pool.TraceProcesses(), db.TraceProcesses()...)
				trace.Stitch(procs)
				// Pace like a scraper: each engine snapshot costs a pipeline
				// no-op per shard, and an unthrottled loop starves traffic.
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}

	writeWG.Wait()
	close(done)
	readWG.Wait()
	if st := srv.Stats(); st.Ops < writers*opsEach*2 {
		t.Fatalf("server saw %d ops, want %d", st.Ops, writers*opsEach*2)
	}
}
