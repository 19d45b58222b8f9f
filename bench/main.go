// Command bench is the repository's benchmark: four workloads in
// wall-clock and virtual time, eight end-to-end metrics, and a per-layer
// budget measured from outside the layers. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON line last
//	bench --seed N [--trace 1] [--runs R] [--json out.json]  every workload, each in its own process
//	bench --compare a.json b.json                            judge b against a by BENCHMARK.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	runs     int
	jsonOut  string
	compare  bool
	specPath string
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload, in this process")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "1: traced pass, per-layer metrics and a span file")
	flag.IntVar(&o.runs, "runs", 1, "with no -workload: repeat the whole set, seeds seed..seed+runs-1")
	flag.StringVar(&o.jsonOut, "json", "", "with no -workload: write every result to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -json files: bench -compare a.json b.json")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "metric directions and bounds for -compare")
	flag.StringVar(&o.outDir, "out", ".bench_build/traces", "directory for span files")
	emit := flag.Bool("print-spec", false, "print BENCHMARK.json as this program defines it")
	flag.Parse()
	// The engine's worker spins on its own thread and recovery polls the
	// device without yielding, while the RAM device completes commands on
	// goroutines of its own: with one P each page read would wait for the
	// runtime's 10 ms preemption (Open alone would take minutes). run.sh
	// pins the process to one CPU, where Go would choose GOMAXPROCS 1.
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	if *emit {
		fmt.Print(benchmarkJSON())
		return
	}
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(o.specPath, flag.Arg(0), flag.Arg(1))
	}
	if o.runs < 1 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("need -runs >= 1, -seconds > 0, -trace 0 or 1")
	}
	if o.workload == "" {
		return runAll(o)
	}
	sp := specByName(o.workload)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := &runCfg{seed: o.seed, seconds: o.seconds, trace: o.trace == 1, setups: setupReps, shrink: 1, isoIters: 20_000}
	defs := endToEnd
	if cfg.trace {
		cfg.setups = 1 // setup_s belongs to the untraced pass
		cfg.traceOut = filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.json", sp.name, o.seed))
		defs = perLayer
	}
	res, err := runWorkload(sp, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.table(defs))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or returned wrong data", sp.name, res.Failed, res.Attempted)
	}
	return nil
}

// header records where and how a result file was made.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// workloadOut is one workload's two passes in a result file.
type workloadOut struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer,omitempty"`
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Header header   `json:"header"`
	Runs   []runOut `json:"runs"`
}

// runOut is one pass over every workload with one seed.
type runOut struct {
	Seed      uint64                  `json:"seed"`
	Workloads map[string]*workloadOut `json:"workloads"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload in a fresh process each, so rss_peak_mb is
// per workload and no workload inherits another's heap.
func runAll(o *options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Header: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: o.seed, Seconds: o.seconds,
	}}
	h, _ := json.Marshal(file.Header)
	fmt.Printf("# %s\n", h)
	bad := 0
	for r := 0; r < o.runs; r++ {
		seed := o.seed + uint64(r)
		out := map[string]*workloadOut{}
		for _, sp := range specs {
			w := &workloadOut{}
			out[sp.name] = w
			if w.EndToEnd, err = child(self, o, sp.name, seed, 0); err != nil {
				return err
			}
			if !w.EndToEnd.Correct {
				bad++
			}
			if o.trace == 1 {
				if w.PerLayer, err = child(self, o, sp.name, seed, 1); err != nil {
					return err
				}
				if !w.PerLayer.Correct {
					bad++
				}
			}
		}
		file.Runs = append(file.Runs, runOut{Seed: seed, Workloads: out})
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload passes returned wrong data", bad)
	}
	return nil
}

// child runs one workload pass in a subprocess, echoes its table, and
// parses the JSON on its last line.
func child(self string, o *options, name string, seed uint64, trace int) (*result, error) {
	cmd := exec.Command(self,
		"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", fmt.Sprint(trace), "--out", o.outDir)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	res := newResult(name)
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %v", name, runErr, err)
	}
	return res, nil
}
