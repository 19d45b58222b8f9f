package probe

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
)

func TestTrackerSubmitCompleteBalance(t *testing.T) {
	tr := NewTracker(DefaultWindow, DefaultSlices)
	now := sim.Time(10 * time.Microsecond)
	tr.OnSubmit(nvme.OpRead, now)
	tr.OnSubmit(nvme.OpWrite, now)
	tr.OnSubmit(nvme.OpRead, now+sim.Time(60*time.Microsecond))
	w, r := tr.Outstanding(now + sim.Time(100*time.Microsecond))
	if w != 1 || r != 2 {
		t.Fatalf("outstanding = (%d,%d)", w, r)
	}
	tr.OnComplete(nvme.OpRead, now)
	w, r = tr.Outstanding(now + sim.Time(100*time.Microsecond))
	if w != 1 || r != 1 {
		t.Fatalf("after complete = (%d,%d)", w, r)
	}
}

func TestTrackerVectorPlacement(t *testing.T) {
	tr := NewTracker(DefaultWindow, DefaultSlices) // 50us slices
	// now = 525us is inside slice 10; a write at 405us is in slice 8,
	// i.e. 2 positions back; a read now lands in position 0.
	now := sim.Time(525 * time.Microsecond)
	tr.OnSubmit(nvme.OpWrite, now-sim.Time(120*time.Microsecond))
	tr.OnSubmit(nvme.OpRead, now)
	v := tr.Vector(now, 0)
	n := tr.Slices()
	if v[2] != 1 {
		t.Fatalf("write slice: vector = %v", v[:5])
	}
	if v[n] != 1 {
		t.Fatalf("read slice: v[n]=%v", v[n])
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum != 2 {
		t.Fatalf("vector total = %v", sum)
	}
}

func TestTrackerVectorShift(t *testing.T) {
	tr := NewTracker(DefaultWindow, DefaultSlices)
	now := sim.Time(500 * time.Microsecond)
	tr.OnSubmit(nvme.OpRead, now)
	v := tr.Vector(now, 3)
	n := tr.Slices()
	if v[n+3] != 1 {
		t.Fatalf("shifted read should appear 3 slices back; v=%v", v[n:n+5])
	}
}

func TestTrackerOldSubmissionsFallOff(t *testing.T) {
	tr := NewTracker(DefaultWindow, DefaultSlices)
	tr.OnSubmit(nvme.OpRead, 0)
	later := sim.Time(2 * time.Millisecond) // beyond the 1ms window
	v := tr.Vector(later, 0)
	for i, x := range v {
		if x != 0 {
			t.Fatalf("stale submission visible at slice %d", i)
		}
	}
	// Completion of an ancient command must not underflow anything, nor
	// touch the slice that now holds its slot.
	tr.OnSubmit(nvme.OpRead, later)
	tr.OnComplete(nvme.OpRead, 0)
	tr.OnComplete(nvme.OpRead, 0)
	if w, r := tr.Outstanding(later); w != 0 || r != 1 {
		t.Fatalf("after completing the ancient read: outstanding = (%d,%d), want (0,1)", w, r)
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestOLSRecoversPlantedCoefficients(t *testing.T) {
	// y = 2*x0 - 0.5*x1 (+ tiny noise); OLS should recover the plant.
	rng := sim.NewRNG(4)
	var xs, ys [][]float64
	for i := 0; i < 500; i++ {
		x0, x1 := rng.Float64()*10, rng.Float64()*10
		noise := (rng.Float64() - 0.5) * 1e-3
		xs = append(xs, []float64{x0, x1})
		ys = append(ys, []float64{2*x0 - 0.5*x1 + noise})
	}
	beta, err := OLS(xs, ys, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0][0]-2) > 1e-2 || math.Abs(beta[1][0]+0.5) > 1e-2 {
		t.Fatalf("beta = %v", beta)
	}
}

func TestOLSShapeErrors(t *testing.T) {
	if _, err := OLS(nil, nil, 0); err == nil {
		t.Fatal("empty OLS accepted")
	}
	if _, err := OLS([][]float64{{1}}, [][]float64{{1}, {2}}, 0); err == nil {
		t.Fatal("mismatched OLS accepted")
	}
	if _, err := OLS([][]float64{{1, 2}, {1}}, [][]float64{{1}, {2}}, 0); err == nil {
		t.Fatal("ragged OLS accepted")
	}
}

// Property: SolveLinear solutions actually satisfy the system.
func TestSolveLinearProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 2 + int(seed%5)
		a := make([][]float64, n)
		orig := make([][]float64, n)
		b := make([]float64, n)
		origB := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				a[i][j] = rng.Float64()*4 - 2
			}
			a[i][i] += float64(n) // diagonally dominant: non-singular
			orig[i] = append([]float64(nil), a[i]...)
			b[i] = rng.Float64()*10 - 5
			origB[i] = b[i]
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += orig[i][j] * x[j]
			}
			if math.Abs(s-origB[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := NewModel(nil); err == nil {
		t.Fatal("empty beta accepted")
	}
	if _, err := NewModel([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged beta accepted")
	}
	m, err := NewModel([][]float64{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	w0, r0 := m.Predict([]float64{3, 4})
	if w0 != 3 || r0 != 4 {
		t.Fatalf("predict = (%v,%v)", w0, r0)
	}
}

func TestModelClampsNegative(t *testing.T) {
	m, _ := NewModel([][]float64{{-1, -1}, {0, 0}})
	w0, r0 := m.Predict([]float64{5, 0})
	if w0 != 0 || r0 != 0 {
		t.Fatalf("negative prediction not clamped: (%v,%v)", w0, r0)
	}
}

// TestModelMedianAge plants a β and checks each class's median age: the
// crossing of ½ by its own cumulative coefficients, interpolated within
// the slice, blind to the other class's rows and column and to a dip
// below the running sum; a class that never reaches ½ gets the window.
func TestModelMedianAge(t *testing.T) {
	const slice = 50 * time.Microsecond
	m, err := NewModel([][]float64{
		// write slices (→w0, →r0): 0.1, 0.3, then 0.7 — ½ at 2.5 slices.
		{0.1, 0.9}, {0.2, 0.9}, {0.4, 0}, {0.3, 0},
		// read slices: 0.3, 0.2, then 0.6 — ½ at 2.75 slices.
		{0.9, 0.3}, {0.9, -0.1}, {0, 0.4}, {0, 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.MedianAge(nvme.OpWrite, slice), 125*time.Microsecond; got != want {
		t.Errorf("write median age = %v, want %v", got, want)
	}
	if got, want := m.MedianAge(nvme.OpRead, slice), 137500*time.Nanosecond; got != want {
		t.Errorf("read median age = %v, want %v", got, want)
	}
	short, _ := NewModel([][]float64{{0.2, 0}, {0.2, 0}, {0, 0.5}, {0, 0}})
	if got, want := short.MedianAge(nvme.OpWrite, slice), 2*slice; got != want {
		t.Errorf("write median age of a class summing to 0.4 = %v, want the window %v", got, want)
	}
	if got, want := short.MedianAge(nvme.OpRead, slice), slice; got != want {
		t.Errorf("read median age = %v, want %v", got, want)
	}
	// The default model: 69.8 µs for a read (0.26 in the first slice,
	// 0.61 in the second), 130.4 µs for a write.
	d, _ := Default()
	for _, c := range []struct {
		op   nvme.Opcode
		want time.Duration
	}{{nvme.OpRead, 69_800 * time.Nanosecond}, {nvme.OpWrite, 130_400 * time.Nanosecond}} {
		if got := d.MedianAge(c.op, DefaultWindow/DefaultSlices).Round(100 * time.Nanosecond); got != c.want {
			t.Errorf("default model: %v median age = %v, want %v", c.op, got, c.want)
		}
	}
}

// TestTrainedModelQuality trains on the device model and checks the
// estimator is actually informative: with a saturated queue it predicts
// completions; with an empty device it predicts ~none.
func TestTrainedModelQuality(t *testing.T) {
	m, err := Train(TrainConfig{Seed: 42, RunPerConfig: 20 * time.Millisecond,
		QueueDepths: []int{1, 8, 32, 64}, WritePercents: []int{0, 10, 50}})
	if err != nil {
		t.Fatal(err)
	}
	// Empty vector → no predicted completions.
	zero := make([]float64, 2*m.Slices())
	w0, r0 := m.Predict(zero)
	if w0 > 0.2 || r0 > 0.2 {
		t.Fatalf("empty device predicted (%v,%v)", w0, r0)
	}
	// 32 reads submitted ~75-150us ago (typical service age) → at least
	// one read completion predicted within the next 50us slice.
	v := make([]float64, 2*m.Slices())
	v[m.Slices()+2] = 16
	v[m.Slices()+3] = 16
	_, r0 = m.Predict(v)
	if r0 < 1 {
		t.Fatalf("mature reads predicted only %v completions", r0)
	}
}

// TestTrainedModelAccuracy replays a fresh workload and measures the
// model's slice-level prediction error against actual completions.
func TestTrainedModelAccuracy(t *testing.T) {
	m, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	// Fresh trace at a grid point the model never saw (qd=48, 20% writes).
	xs, ys := collect(TrainConfig{Seed: 999}.withDefaults(), 48, 20, 999)
	if len(xs) < 100 {
		t.Fatalf("only %d samples", len(xs))
	}
	var absErr, total float64
	for i := range xs {
		w0, r0 := m.Predict(xs[i])
		absErr += math.Abs(w0-ys[i][0]) + math.Abs(r0-ys[i][1])
		total += ys[i][0] + ys[i][1]
	}
	if total == 0 {
		t.Fatal("trace had no completions")
	}
	rel := absErr / total
	if rel > 0.5 {
		t.Fatalf("relative prediction error %.2f too high", rel)
	}
}

// TestDefaultModelMatchesTraining retrains the default model and requires
// the committed coefficients bit for bit, so recalibrating the simulated
// device cannot leave default_model.go stale. To refresh it:
//
//	go run ./cmd/patrain -emit internal/probe/default_model.go
//
// Architectures whose compiler fuses multiply-adds round the fit
// differently from amd64, where the file is generated; there the
// coefficients need only agree to 1e-9 relative.
func TestDefaultModelMatchesTraining(t *testing.T) {
	trained, err := Train(TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shipped, _ := Default()
	want, got := trained.Beta(), shipped.Beta()
	if len(got) != len(want) {
		t.Fatalf("committed model has %d rows, training gives %d", len(got), len(want))
	}
	exact := runtime.GOARCH == "amd64"
	for i := range want {
		for j := range want[i] {
			w, g := want[i][j], got[i][j]
			if exact && math.Float64bits(w) != math.Float64bits(g) ||
				!exact && math.Abs(w-g) > 1e-9*math.Max(math.Abs(w), 1e-12) {
				t.Fatalf("β[%d][%d] = %v committed, %v trained: regenerate default_model.go", i, j, g, w)
			}
		}
	}
}

func TestDefaultModelCachedAndDeterministic(t *testing.T) {
	m1, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := Default()
	if m1 != m2 {
		t.Fatal("Default not cached")
	}
	if m1.Slices() != DefaultSlices {
		t.Fatalf("slices = %d", m1.Slices())
	}
	if len(m1.String()) == 0 {
		t.Fatal("empty String()")
	}
}
