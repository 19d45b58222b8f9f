package harness

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata/*_golden.json files from the current drivers")

const (
	goldenPath     = "testdata/runpatree_golden.json"
	syncGoldenPath = "testdata/runsync_golden.json"
)

// goldenRun is one pinned RunPATree result.
type goldenRun struct {
	Name  string
	Stats RunStats
}

// goldenConfigs returns one configuration per run mode of the driver:
// single-tree closed and open loops, a dedicated poller, weak
// persistence with group commit, the journal, scan read-ahead, a
// multi-device topology, the same topology under hot-shard skew, and a
// buffered read-heavy mix over two shards.
func goldenConfigs(s Scale) []struct {
	name string
	cfg  PAConfig
} {
	with := func(base core.Config, edit func(*core.Config)) func() core.Config {
		return func() core.Config {
			cfg := base
			edit(&cfg)
			return cfg
		}
	}
	strong := paTree(0, core.StrongPersistence)
	scanScale := s
	scanScale.Concurrency = 8
	return []struct {
		name string
		cfg  PAConfig
	}{
		{"1x1 strong", PAConfig{Scale: s, MkTree: strong, Gen: defaultGen(s, 10, 0.3)}},
		{"PAD+", PAConfig{Scale: s, Gen: defaultGen(s, 10, 0.3),
			MkTree: with(paTreeConfig(0, core.StrongPersistence), func(c *core.Config) { c.Poller = core.PollerDedicatedModel })}},
		{"open loop 25K", PAConfig{Scale: s, MkTree: strong, Gen: defaultGen(s, 10, 0.3), ArrivalRate: 25e3}},
		{"weak buffered sync", PAConfig{Scale: s, MkTree: paTree(64, core.WeakPersistence),
			Gen: defaultGen(s, 10, 0.3), SyncEvery: 100}},
		{"journaled", PAConfig{Scale: s, Gen: defaultGen(s, 50, 0.3),
			MkTree: with(paTreeConfig(s.PreloadKeys/12, core.StrongPersistence), func(c *core.Config) { c.Journal = true })}},
		{"scan-cold pipelined", PAConfig{Scale: scanScale,
			MkTree: with(paTreeConfig(s.PreloadKeys/50, core.StrongPersistence), func(c *core.Config) { c.Pipelined = true }),
			Gen: workload.NewYCSB(workload.YCSBConfig{Keys: uint64(s.PreloadKeys), UpdatePercent: 5,
				RangePercent: 60, Theta: 0.3, Seed: s.Seed})}},
		{"4x2", PAConfig{Scale: s, Shards: 4, Devices: 2, MkTree: strong, Gen: defaultGen(s, 10, 0.3)}},
		{"hot80", PAConfig{Scale: s, Shards: 4, Devices: 2, MkTree: strong,
			Gen:    newHotShardGen(defaultGen(s, 10, 0.6), 4, 80, uint64(s.PreloadKeys), s.Seed),
			Device: nvme.SimConfig{Parallelism: 64}}},
		{"read-heavy x2 pipeline", PAConfig{Scale: s, Shards: 2, Gen: defaultGen(s, 5, 0.3),
			Device: nvme.SimConfig{Parallelism: 256}, MkTree: paTree(s.PreloadKeys/12, core.StrongPersistence)}},
	}
}

// TestRunPATreeGolden pins RunPATree's exact statistics for every run
// mode at tinyScale. Every value the separate single-tree, multi-device
// and read-heavy drivers used to report was taken from those drivers;
// the fields they left zero (a single tree's ShardQueueP99, a sharded
// run's DevCmdsPerOp) and the labels come from this one. The simulation
// is deterministic, so any difference means the driver changed the
// schedule or the fold; if that is the intent, rerun with -update and
// review the diff of the testdata file.
func TestRunPATreeGolden(t *testing.T) {
	s := tinyScale()
	var got []goldenRun
	for _, c := range goldenConfigs(s) {
		got = append(got, goldenRun{Name: c.name, Stats: RunPATree(c.cfg)})
	}
	checkGolden(t, goldenPath, got)
}

// checkGolden compares got field by field with the runs stored at path,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []goldenRun) {
	t.Helper()
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d runs, the test %d", len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if w.Name != g.Name {
			t.Fatalf("run %d is %q, golden file has %q", i, g.Name, w.Name)
		}
		gv, wv := reflect.ValueOf(g.Stats), reflect.ValueOf(w.Stats)
		for f := 0; f < gv.NumField(); f++ {
			if a, b := gv.Field(f).Interface(), wv.Field(f).Interface(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: %s = %v, golden %v", g.Name, gv.Type().Field(f).Name, a, b)
			}
		}
	}
}
