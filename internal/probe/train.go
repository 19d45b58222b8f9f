package probe

import (
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
)

// ridge is the damping Train adds to the normal equations.
const ridge = 1e-6

// TrainConfig controls training-trace generation.
type TrainConfig struct {
	// Window and Slices define the feature geometry (defaults: paper's
	// t=1000µs, n=20).
	Window time.Duration
	Slices int
	// QueueDepths and WritePercents enumerate the workload grid; the paper
	// "generates training data from a variety of workloads with different
	// read/write ratio and workload intensity".
	QueueDepths   []int
	WritePercents []int
	// RunPerConfig is the virtual time simulated per grid point.
	RunPerConfig time.Duration
	// Seed drives the generator and the device model.
	Seed uint64
	// Device sizes the device model, whose timing is nvme's calibrated
	// constants. Training on the same model the experiments use mirrors
	// the paper training on the same SSD it evaluates on.
	Device nvme.SimConfig
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Slices <= 0 {
		c.Slices = DefaultSlices
	}
	if len(c.QueueDepths) == 0 {
		c.QueueDepths = []int{1, 4, 8, 16, 32, 64, 128, 256}
	}
	if len(c.WritePercents) == 0 {
		c.WritePercents = []int{0, 10, 30, 50, 70, 100}
	}
	if c.RunPerConfig <= 0 {
		c.RunPerConfig = 40 * time.Millisecond
	}
	return c
}

// Train runs the workload grid against the simulated device, collects
// (feature, next-slice completions) samples, and fits the model by OLS.
func Train(cfg TrainConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	var xs, ys [][]float64
	rootRNG := sim.NewRNG(cfg.Seed ^ 0x7e57ab1e)
	for _, qd := range cfg.QueueDepths {
		for _, wp := range cfg.WritePercents {
			x, y := collect(cfg, qd, wp, rootRNG.Uint64())
			xs = append(xs, x...)
			ys = append(ys, y...)
		}
	}
	beta, err := OLS(xs, ys, ridge)
	if err != nil {
		return nil, err
	}
	return NewModel(beta)
}

// CollectTrace gathers (feature, next-slice completions) samples for one
// (queue depth, write percent) grid point; exported for cmd/patrain's
// held-out evaluation.
func CollectTrace(cfg TrainConfig, qd, writePct int, seed uint64) (xs, ys [][]float64) {
	return collect(cfg.withDefaults(), qd, writePct, seed)
}

// collect gathers samples for one (queue depth, write percent) point.
func collect(cfg TrainConfig, qd, writePct int, seed uint64) (xs, ys [][]float64) {
	eng := sim.NewEngine()
	devCfg := cfg.Device
	devCfg.Seed = seed
	dev := nvme.NewSimDevice(eng, devCfg)
	qp, err := dev.AllocQueuePair(qd + 8)
	if err != nil {
		panic(err)
	}
	rng := sim.NewRNG(seed ^ 0xfeed)
	tr := NewTracker(cfg.Window, cfg.Slices)
	buf := make([]byte, dev.BlockSize())

	inflight := 0
	type meta struct {
		op nvme.Opcode
		at sim.Time
	}
	submit := func() {
		for inflight < qd {
			op := nvme.OpRead
			if rng.Intn(100) < writePct {
				op = nvme.OpWrite
			}
			m := meta{op: op, at: eng.Now()}
			cmd := &nvme.Command{Op: op, LBA: rng.Uint64n(4096), Blocks: 1, Buf: buf}
			cmd.Callback = func(nvme.Completion) {
				inflight--
				tr.OnComplete(m.op, m.at)
			}
			if qp.Submit(cmd) != nil {
				return
			}
			tr.OnSubmit(op, eng.Now())
			inflight++
		}
	}

	slice := tr.SliceDur()
	var lastW, lastR uint64
	var prevFeature []float64
	var tick func()
	tick = func() {
		// Close out the previous sample: completions posted during the
		// elapsed slice (from device-side counters, independent of what we
		// happened to reap).
		st := dev.Stats()
		if prevFeature != nil {
			ys = append(ys, []float64{float64(st.CompletedWrites - lastW), float64(st.CompletedReads - lastR)})
			xs = append(xs, prevFeature)
		}
		lastW, lastR = st.CompletedWrites, st.CompletedReads
		qp.Probe(0)
		submit()
		f := tr.Vector(eng.Now(), 0)
		prevFeature = f
		eng.After(slice, tick)
	}
	submit()
	eng.After(slice, tick)
	eng.RunUntil(sim.Time(cfg.RunPerConfig))
	return xs, ys
}

// defaultModel is the package default, shipped as data so that no process
// pays for training: default_model.go holds β as written by
// `patrain -emit`, and TestDefaultModelMatchesTraining requires it to equal
// Train(TrainConfig{Seed: 1}) bit for bit.
var defaultModel = &Model{beta: defaultBeta, n: len(defaultBeta) / 2}

// Default returns the package default model: seed 1, calibrated device,
// default feature geometry.
func Default() (*Model, error) { return defaultModel, nil }
