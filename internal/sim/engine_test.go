package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of insertion order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(5, func() {
		fired = append(fired, e.Now())
		e.After(7, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 12 {
		t.Fatalf("fired = %v, want [5 12]", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.At(10, func() { ran = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	var ids []EventID
	for i := 0; i < 20; i++ {
		i := i
		ids = append(ids, e.At(Time(i*10), func() { got = append(got, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		e.Cancel(ids[i])
	}
	e.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d ran", v)
		}
	}
	if len(got) != 13 {
		t.Fatalf("got %d events, want 13", len(got))
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.At(30, func() { got = append(got, 3) })
	e.RunUntil(20)
	if len(got) != 2 {
		t.Fatalf("RunUntil(20) ran %d events, want 2", len(got))
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	e.RunUntil(25)
	if e.Now() != 25 {
		t.Fatalf("Now after empty RunUntil = %v, want 25", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		e.After(100*Nanosecond, tick)
	}
	e.After(100*Nanosecond, tick)
	e.RunFor(1 * time.Microsecond)
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func() { n++; e.Stop() })
	e.At(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("events run = %d, want 1", n)
	}
	// Run again resumes.
	e.Run()
	if n != 2 {
		t.Fatalf("events run after resume = %d, want 2", n)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(1500)
	if tm.Add(500*Nanosecond) != 2000 {
		t.Fatal("Add wrong")
	}
	if tm.Sub(Time(500)) != 1000*Nanosecond {
		t.Fatal("Sub wrong")
	}
	if Time(2500).Micros() != 2.5 {
		t.Fatal("Micros wrong")
	}
	if Time(2e9).Seconds() != 2.0 {
		t.Fatal("Seconds wrong")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		counts[v]++
	}
	// Roughly uniform: each bucket within 20% of expectation.
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(1)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(100 * Microsecond))
	}
	mean := sum / n
	want := float64(100 * Microsecond)
	if mean < 0.97*want || mean > 1.03*want {
		t.Fatalf("exp mean = %v, want ~%v", mean, want)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < 9.95 || mean > 10.05 {
		t.Fatalf("norm mean = %v, want ~10", mean)
	}
	if variance < 3.8 || variance > 4.2 {
		t.Fatalf("norm variance = %v, want ~4", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGUint64nProperty(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if r.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMul128(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{^uint64(0), ^uint64(0), ^uint64(0) - 1, 1},
		{0xdeadbeef, 0x10000000000, 0xde, 0xadbeef0000000000},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul128(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
