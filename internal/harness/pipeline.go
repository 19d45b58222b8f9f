package harness

import (
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/workload"
)

// This file is the figpipeline harness for the polled loop's overlap
// machinery (DESIGN.md §17): scan read-ahead. Each mix runs twice on the
// same seed — once with the classic strictly-reactive loop the paper
// profile runs, once with Config.Pipelined on as patree.Open runs it — so
// every delta is the schedule change and nothing else.

// PipelineMix is one committed figpipeline workload configuration.
type PipelineMix struct {
	Name string
	// UpdatePercent is the write share of the YCSB mix.
	UpdatePercent int
	// Journal turns on the redo journal. Every journaled tree keeps the
	// same depth of WAL block writes in flight, so a journaled mix with no
	// scans runs identically both ways; it is kept for its count series.
	Journal bool
	// BufferDiv sizes the page buffer as PreloadKeys/BufferDiv pages; a
	// large divisor leaves the tree cold so a scan's sibling leaves miss
	// and the read-ahead has reads to issue together.
	BufferDiv int
	// Concurrency overrides the scale's closed-loop depth when > 0. Deep
	// closed loops hide read latency on their own (the worker always has
	// other ops to run during a wait), so the scan mix keeps few ops
	// outstanding — the regime where the worker otherwise idles on
	// serial sibling reads.
	Concurrency int
	// RangePercent adds YCSB-E style short scans (64 pairs) to the mix;
	// a scan crossing leaf boundaries is the serial-read chain read-ahead
	// collapses into one command per run of adjacent leaves.
	RangePercent int
}

// PipelineMixes are the mixes committed in BENCH_pipeline.json. The
// journal mix is write-heavy with a warm buffer; Pipelined does not
// change it, and it is the deterministic guard on the journaled write
// path's throughput and count ratios. The scan mix is cold and
// scan-heavy at a modest closed-loop depth: each scan crossing leaf
// boundaries waits out a serial chain of sibling reads that the
// read-ahead issues as one command per run of adjacent leaves instead.
var PipelineMixes = []PipelineMix{
	{Name: "journal-write", UpdatePercent: 50, Journal: true, BufferDiv: 12},
	{Name: "scan-cold", UpdatePercent: 5, RangePercent: 60, BufferDiv: 50, Concurrency: 8},
}

// RunPipelineMix executes one mix. pipelined toggles scan read-ahead on
// the same seed and workload.
func RunPipelineMix(scale Scale, mix PipelineMix, pipelined bool) RunStats {
	if mix.Concurrency > 0 {
		scale.Concurrency = mix.Concurrency
	}
	cfg := paTreeConfig(scale.PreloadKeys/mix.BufferDiv, core.StrongPersistence)
	cfg.Journal = mix.Journal
	cfg.Pipelined = pipelined
	gen := workload.NewYCSB(workload.YCSBConfig{
		Keys:          uint64(scale.PreloadKeys),
		UpdatePercent: mix.UpdatePercent,
		RangePercent:  mix.RangePercent,
		Theta:         0.3,
		Seed:          scale.Seed,
	})
	rs := RunPATree(PAConfig{Scale: scale, MkTree: func() core.Config { return cfg }, Gen: gen})
	label := "classic"
	if pipelined {
		label = "pipelined"
	}
	rs.Label = "PA-Tree " + mix.Name + " " + label
	return rs
}

// PipelineResult pairs one mix's classic and pipelined runs.
type PipelineResult struct {
	Mix PipelineMix
	Off RunStats
	On  RunStats
}

// PipelineSweep runs every committed mix off and on.
func PipelineSweep(scale Scale) []PipelineResult {
	out := make([]PipelineResult, 0, len(PipelineMixes))
	for _, mix := range PipelineMixes {
		out = append(out, PipelineResult{
			Mix: mix,
			Off: RunPipelineMix(scale, mix, false),
			On:  RunPipelineMix(scale, mix, true),
		})
	}
	return out
}

// FigPipeline regenerates the overlap figure: per-mix throughput and
// tail latency with the machinery off and on.
func FigPipeline(scale Scale) Report {
	tb := metrics.NewTable("mix", "classic (Kops/s)", "pipelined (Kops/s)", "speedup",
		"classic p99 (us)", "pipelined p99 (us)")
	for _, r := range PipelineSweep(scale) {
		tb.AddRow(r.Mix.Name, r.Off.Throughput/1e3, r.On.Throughput/1e3,
			r.On.Throughput/r.Off.Throughput,
			float64(r.Off.P99Latency)/1e3, float64(r.On.P99Latency)/1e3)
	}
	return Report{ID: "figpipeline", Title: "Overlapped I/O and computation: classic vs pipelined polled loop", Table: tb,
		Notes: "read-ahead of each scan's leaves under shared latches, one command per run of adjacent pages, collapses the cold scan mix's serial leaf chains (~2.0x); the journaled write mix runs the same both ways (1.0x), since every journaled tree keeps 8 WAL block writes in flight and writes its pages back; with the feature off the schedules are byte-identical to the classic loop"}
}
