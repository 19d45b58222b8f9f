package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
)

// tiny is every workload at 1/50 of its image with windows of a few tens
// of milliseconds.
func tiny(seed uint64, trace bool) *runCfg {
	return &runCfg{seed: seed, seconds: 0.25, trace: trace, setups: 1, shrink: 50, isoIters: 1000}
}

// TestSmoke runs both passes of every workload and checks the contract:
// every named metric exactly once, finite, and no operation failed.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			sp, trace := sp, trace
			t.Run(fmt.Sprintf("%s/trace=%v", sp.name, trace), func(t *testing.T) {
				smoke(t, sp, trace)
			})
		}
	}
}

func smoke(t *testing.T, sp *spec, trace bool) {
	cfg := tiny(1, trace)
	defs := endToEnd
	if trace {
		defs = perLayer
		cfg.traceOut = filepath.Join(t.TempDir(), "spans.json")
	}
	if sp.sim {
		cfg.seconds = 0.6 // 90 ms of unloaded virtual time: some eighty operations
	}
	res, err := runWorkload(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, res.table(defs))
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v (present %v)", d.name, m, ok)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must be positive", d.name, m.Value)
		}
	}
	if !trace {
		return
	}
	checkPredictions(t, sp, res)
	var doc struct {
		Spans []span `json:"spans"`
	}
	data, err := os.ReadFile(cfg.traceOut)
	if err != nil || json.Unmarshal(data, &doc) != nil || len(doc.Spans) == 0 {
		t.Errorf("span file unreadable or empty (%v)", err)
	}
}

// checkPredictions pins the README's layer predictions that hold by
// construction: a layer that a workload bypasses reads zero there.
func checkPredictions(t *testing.T, sp *spec, res *result) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	if !sp.journal {
		for _, n := range []string{"wal.bytes_per_user_byte", "wal.appends_per_op", "wal.checkpoints_per_s"} {
			if v(n) != 0 {
				t.Errorf("%s: %s = %v, want 0 without a journal", sp.name, n, v(n))
			}
		}
	} else if v("wal.bytes_per_user_byte") <= 0 || v("wal.appends_per_op") <= 0 {
		t.Errorf("%s: journal on but wal.* is zero", sp.name)
	}
	wire := []string{"client.self_us", "server.self_us", "proto.wire_bytes_per_op", "server.burst_ops_mean"}
	for _, n := range wire {
		if sp.serve && v(n) <= 0 {
			t.Errorf("%s: %s = %v, want > 0 over the wire", sp.name, n, v(n))
		}
		if !sp.serve && v(n) != 0 {
			t.Errorf("%s: %s = %v, want 0 off the wire", sp.name, n, v(n))
		}
	}
	if sp.serve && v("buffer.hit_rate") < 0.95 {
		t.Errorf("%s: buffer.hit_rate = %v, the image should fit the cache", sp.name, v("buffer.hit_rate"))
	}
	if sp.sim && (v("buffer.hit_rate") != 0 || v("bench.trace_overhead_pct") != 0) {
		t.Errorf("%s: hit rate %v and trace overhead %v must both be 0 in virtual time", sp.name, v("buffer.hit_rate"), v("bench.trace_overhead_pct"))
	}
}

// virtual picks the metrics of a sim run that live in virtual time.
func virtual(res *result) []byte {
	out := map[string]float64{}
	for _, n := range []string{"ops_per_s", "lat_p50_us", "cpu_us_per_op", "dev_ios_per_op", "write_amp", "space_amp"} {
		out[n] = res.Metrics[n].Value
	}
	b, _ := json.Marshal(out)
	return b
}

// TestSimDeterministic: one seed, one answer, to the byte; another seed,
// another answer.
func TestSimDeterministic(t *testing.T) {
	sp := specByName("sim-paper-default")
	run := func(seed uint64) []byte {
		cfg := tiny(seed, false)
		cfg.seconds = 0.6
		res, err := runWorkload(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return virtual(res)
	}
	a, b, c := run(7), run(7), run(8)
	if !bytes.Equal(a, b) {
		t.Errorf("same seed, different virtual results:\n%s\n%s", a, b)
	}
	if bytes.Equal(a, c) {
		t.Errorf("seeds 7 and 8 gave identical results: %s", a)
	}
}

// TestDeviceWrapper writes through the wrapper's queue pair and reads
// back, over both device kinds, and checks what the wrapper counted.
func TestDeviceWrapper(t *testing.T) {
	eng := sim.NewEngine()
	devices := map[string]nvme.Device{
		"ram": nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 4096}),
		"sim": nvme.NewSimDevice(eng, nvme.SimConfig{NumBlocks: 4096, Seed: 1}),
	}
	for name, inner := range devices {
		d := newCountDev(inner, func() int64 { return int64(eng.Now()) }, nil)
		d.setWAL(1000, 100)
		d.traced.Store(true)
		qp, err := d.AllocQueuePair(16)
		if err != nil {
			t.Fatal(err)
		}
		wait := func(n int) {
			for got := 0; got < n; {
				d.Advance()
				got += qp.Probe(0)
			}
		}
		bs := d.BlockSize()
		data := bytes.Repeat([]byte{0xab}, 2*bs)
		lbas := []uint64{5, 1000, 5} // one LBA twice, one in the WAL range
		for _, lba := range lbas {
			cmd := &nvme.Command{Op: nvme.OpWrite, LBA: lba, Blocks: 2, Buf: data}
			var got *nvme.Command
			cmd.Callback = func(c nvme.Completion) { got = c.Cmd }
			if err := qp.Submit(cmd); err != nil {
				t.Fatal(err)
			}
			wait(1)
			if got != cmd {
				t.Errorf("%s: completion carries %p, want the caller's command %p", name, got, cmd)
			}
		}
		back := make([]byte, 2*bs)
		if err := qp.Submit(&nvme.Command{Op: nvme.OpRead, LBA: 5, Blocks: 2, Buf: back}); err != nil {
			t.Fatal(err)
		}
		wait(1)
		direct := make([]byte, 2*bs)
		d.ReadAt(1000, direct)
		if !bytes.Equal(back, data) || !bytes.Equal(direct, data) {
			t.Errorf("%s: read-back differs from what was written", name)
		}
		d.WriteAt(2000, data[:bs])
		c := d.counts()
		want := devCounts{Reads: 1, Writes: 3, ReadBytes: uint64(2 * bs), WriteBytes: uint64(6 * bs), WALWriteBytes: uint64(2 * bs)}
		if c.Reads != want.Reads || c.Writes != want.Writes || c.ReadBytes != want.ReadBytes ||
			c.WriteBytes != want.WriteBytes || c.WALWriteBytes != want.WALWriteBytes || c.Errors != 0 || c.Probes == 0 {
			t.Errorf("%s: counted %+v", name, c)
		}
		if n := d.distinctWritten(); n != 5 { // 5,6 + 1000,1001 + 2000
			t.Errorf("%s: %d distinct LBAs written, want 5", name, n)
		}
		tm := d.drainTimings()
		if len(tm.writeLat) != 3 || len(tm.readLat) != 1 || tm.submitNs <= 0 {
			t.Errorf("%s: traced timings %d writes %d reads submit %v ns", name, len(tm.writeLat), len(tm.readLat), tm.submitNs)
		}
		if err := qp.Free(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchmarkJSON keeps the file at the repository root and the
// program's definitions the same.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != benchmarkJSON() {
		t.Errorf("BENCHMARK.json differs from the program's definitions; regenerate it with: bash bench/run.sh -print-spec > BENCHMARK.json")
	}
}

// TestCompare: a metric worse by more than its bound fails the
// comparison; one inside the bound does not.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64) string {
		f := resultFile{}
		run := runOut{Seed: 1, Workloads: map[string]*workloadOut{}}
		for _, sp := range specs {
			r := newResult(sp.name)
			for _, d := range endToEnd {
				r.set(d.name, 100)
			}
			r.set("ops_per_s", opsPerS)
			run.Workloads[sp.name] = &workloadOut{EndToEnd: r}
		}
		f.Runs = append(f.Runs, run)
		data, _ := json.Marshal(f)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, slow := write("a.json", 1000), write("b.json", 995), write("c.json", 700)
	if err := compareFiles("../BENCHMARK.json", base, same); err != nil {
		t.Errorf("0.5%% slower judged worse: %v", err)
	}
	if err := compareFiles("../BENCHMARK.json", base, slow); err == nil {
		t.Errorf("30%% slower not judged worse")
	}
	for name := range simBounds {
		known := false
		for _, d := range endToEnd {
			known = known || d.name == name
		}
		if !known {
			t.Errorf("simBounds names %q, which is not an end-to-end metric", name)
		}
	}
	if s := spread([]float64{9, 10, 10, 10, 10, 10, 10, 10, 10, 11}); s != 0 {
		t.Errorf("spread of a tight series = %v, want 0 (quartiles coincide)", s)
	}
}
