// Command paexp regenerates the tables and figures of the paper's
// evaluation section on the simulated testbed.
//
// Usage:
//
//	paexp -run fig7              # one experiment (fig3a..fig15, table1, table2)
//	paexp -run all               # everything
//	paexp -run all -full         # paper-scale (minutes of host time)
//	paexp -list                  # list experiment ids
//
// With -bench-out, paexp instead runs a benchmark sweep and writes the
// measurements as a BENCH_*.json trajectory; -bench selects which
// sweep ("multidev" = figmultidev's topologies, "pipeline" =
// figpipeline's classic-vs-pipelined mixes). -baseline compares
// against a committed file and exits non-zero on regressions beyond
// -max-regress. The sweeps run on the deterministic simulator, so the
// gates are immune to CI host noise — a regression means the code
// changed the schedule.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/patree/patree/internal/harness"
)

func main() {
	runID := flag.String("run", "", "experiment id (fig3a, fig3b, fig3c, fig7, fig8, table1, table2, fig9, fig10, fig11, fig12, fig13, fig14, fig15, all)")
	full := flag.Bool("full", false, "paper-scale runs (larger trees, longer windows)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	seed := flag.Uint64("seed", 42, "simulation seed")
	benchOut := flag.String("bench-out", "", "run a benchmark sweep and write BENCH JSON here")
	benchID := flag.String("bench", "multidev", "which sweep -bench-out runs (multidev, pipeline)")
	baseline := flag.String("baseline", "", "compare the sweep against this BENCH JSON")
	maxReg := flag.Float64("max-regress", 0.15, "regression tolerance vs baseline")
	flag.Parse()

	ids := []string{"fig3a", "fig3b", "fig3c", "fig7", "fig8", "table1", "table2",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "figshards", "figmultidev", "figreadheavy", "figpipeline"}
	if *list {
		fmt.Println(strings.Join(ids, "\n"))
		return
	}
	scale := harness.BenchScale()
	if *full {
		scale = harness.FullScale()
	}
	scale.Seed = *seed

	if *benchOut != "" {
		switch *benchID {
		case "multidev":
			multiDevBench(scale, *benchOut, *baseline, *maxReg)
		case "pipeline":
			pipelineBench(scale, *benchOut, *baseline, *maxReg)
		default:
			fmt.Fprintf(os.Stderr, "unknown sweep %q; use multidev or pipeline\n", *benchID)
			os.Exit(2)
		}
		return
	}
	if *runID == "" {
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	var reports []harness.Report
	needSchemes := func(id string) bool {
		switch id {
		case "fig7", "fig8", "table1", "table2", "fig9", "all":
			return true
		}
		return false
	}
	var rows []harness.SchemeRows
	if needSchemes(*runID) {
		fmt.Fprintln(os.Stderr, "running §V-A scheme comparison (PA-Tree vs shared vs dedicated)...")
		rows = harness.RunSchemes(scale, []int{0, 10, 50})
	}
	add := func(id string) {
		switch id {
		case "fig3a":
			reports = append(reports, harness.Fig3a(scale))
		case "fig3b":
			reports = append(reports, harness.Fig3b(scale))
		case "fig3c":
			reports = append(reports, harness.Fig3c(scale))
		case "fig7":
			reports = append(reports, harness.Fig7(rows, scale))
		case "fig8":
			reports = append(reports, harness.Fig8(rows, scale))
		case "table1":
			reports = append(reports, harness.Table1(rows))
		case "table2":
			reports = append(reports, harness.Table2(rows))
		case "fig9":
			reports = append(reports, harness.Fig9(rows))
		case "fig10":
			reports = append(reports, harness.Fig10(scale))
		case "fig11":
			reports = append(reports, harness.Fig11(scale))
		case "fig12":
			reports = append(reports, harness.Fig12(scale))
		case "fig13":
			reports = append(reports, harness.Fig13(scale))
		case "fig14":
			reports = append(reports, harness.Fig14(scale))
		case "fig15":
			reports = append(reports, harness.Fig15(scale))
		case "figshards":
			reports = append(reports, harness.FigShards(scale))
		case "figmultidev":
			reports = append(reports, harness.FigMultiDev(scale))
		case "figreadheavy":
			reports = append(reports, harness.FigReadHeavy(scale))
		case "figpipeline":
			reports = append(reports, harness.FigPipeline(scale))
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "  %s done (%.1fs elapsed)\n", id, time.Since(start).Seconds())
	}
	if *runID == "all" {
		for _, id := range ids {
			add(id)
		}
	} else {
		add(*runID)
	}
	for _, r := range reports {
		fmt.Println(r)
		fmt.Printf("expected shape (paper): %s\n\n", r.Notes)
	}
}

// multiDevBench runs the figmultidev sweep as a bench trajectory.
func multiDevBench(scale harness.Scale, out, baseline string, maxReg float64) {
	start := time.Now()
	fmt.Fprintln(os.Stderr, "running multi-device scaling sweep...")
	sweep := harness.MultiDevSweep(scale)
	var entries []harness.BenchEntry
	for i, s := range sweep {
		topo := harness.MultiDevTopologies[i]
		prefix := fmt.Sprintf("multidev/%dx%d", topo[0], topo[1])
		entries = append(entries,
			harness.BenchEntry{Name: prefix + "/throughput", Unit: "ops/s", Value: s.Throughput,
				Extra: fmt.Sprintf("%d shards on %d devices, %d ops, seed %d", topo[0], topo[1], s.Ops, scale.Seed)},
			harness.BenchEntry{Name: prefix + "/mean", Unit: "us", Value: us(s.MeanLatency)},
			harness.BenchEntry{Name: prefix + "/p99", Unit: "us", Value: us(s.P99Latency)},
		)
	}
	writeAndGate(entries, start, out, baseline, maxReg)
}

// pipelineBench runs the figpipeline sweep (each committed mix with the
// overlap machinery off and on) as a bench trajectory. The speedup_ops
// series is what pins the feature's win: the gate fails if pipelining
// stops beating the classic loop by the committed margin.
func pipelineBench(scale harness.Scale, out, baseline string, maxReg float64) {
	start := time.Now()
	fmt.Fprintln(os.Stderr, "running pipeline overlap sweep...")
	sweep := harness.PipelineSweep(scale)
	var entries []harness.BenchEntry
	for _, r := range sweep {
		prefix := "pipeline/" + r.Mix.Name
		extra := fmt.Sprintf("%d%% updates, journal=%v, %d ops, seed %d",
			r.Mix.UpdatePercent, r.Mix.Journal, r.On.Ops, scale.Seed)
		entries = append(entries,
			harness.BenchEntry{Name: prefix + "/classic/throughput", Unit: "ops/s", Value: r.Off.Throughput},
			harness.BenchEntry{Name: prefix + "/classic/mean", Unit: "us", Value: us(r.Off.MeanLatency)},
			harness.BenchEntry{Name: prefix + "/classic/p99", Unit: "us", Value: us(r.Off.P99Latency)},
			harness.BenchEntry{Name: prefix + "/pipelined/throughput", Unit: "ops/s", Value: r.On.Throughput, Extra: extra},
			harness.BenchEntry{Name: prefix + "/pipelined/mean", Unit: "us", Value: us(r.On.MeanLatency)},
			harness.BenchEntry{Name: prefix + "/pipelined/p99", Unit: "us", Value: us(r.On.P99Latency)},
			harness.BenchEntry{Name: prefix + "/speedup_ops", Unit: "x", Value: r.On.Throughput / r.Off.Throughput},
		)
		// Count series, gated "lower": device commands per op for every
		// mix, and the journal's bytes per user byte for the journaled one.
		for _, side := range []struct {
			name string
			rs   harness.RunStats
		}{{"classic", r.Off}, {"pipelined", r.On}} {
			if r.Mix.Journal {
				entries = append(entries, harness.BenchEntry{Name: prefix + "/" + side.name + "/wal_bytes_per_user_byte", Unit: "ratio", Value: side.rs.WALBytesPerUserByte})
			}
			entries = append(entries, harness.BenchEntry{Name: prefix + "/" + side.name + "/dev_cmds_per_op", Unit: "cmds/op", Value: side.rs.DevCmdsPerOp})
		}
	}
	writeAndGate(entries, start, out, baseline, maxReg)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// writeAndGate prints a sweep's entries, writes them to out and, given a
// baseline file, exits non-zero on a regression beyond maxReg.
func writeAndGate(entries []harness.BenchEntry, start time.Time, out, baseline string, maxReg float64) {
	for _, e := range entries {
		fmt.Fprintf(os.Stderr, "  %-40s %14.2f %s\n", e.Name, e.Value, e.Unit)
	}
	if err := harness.WriteBench(out, entries); err != nil {
		fmt.Fprintf(os.Stderr, "paexp: write %s: %v\n", out, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "paexp: wrote %s (%.1fs elapsed)\n", out, time.Since(start).Seconds())
	if baseline == "" {
		return
	}
	base, err := harness.ReadBench(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paexp: baseline: %v\n", err)
		os.Exit(1)
	}
	if regs := harness.Compare(entries, base, maxReg); len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "paexp: REGRESSION: %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "paexp: within %.0f%% of %s\n", maxReg*100, baseline)
}
