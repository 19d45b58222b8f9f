package patree

// One benchmark per table and figure of the paper's evaluation section.
// Each bench regenerates its table/figure at a reduced scale (see
// internal/harness.BenchScale) and reports the headline numbers as custom
// metrics; `cmd/paexp -run all -full` produces the full-scale versions.
//
// These are throughput experiments on a virtual clock: b.N is not the
// unit of work (one iteration = one full experiment), so benches report
// domain metrics (Kops/s, µs latency) rather than ns/op.

import (
	"testing"
	"time"

	"github.com/patree/patree/internal/harness"
)

func benchScale() harness.Scale {
	s := harness.BenchScale()
	s.PreloadKeys = 50_000
	s.Warmup = 20 * time.Millisecond
	s.Measure = 100 * time.Millisecond
	s.Threads = []int{1, 32, 128}
	return s
}

// report prints a regenerated table once per bench run.
func report(b *testing.B, r harness.Report) {
	b.Helper()
	b.Logf("\n%s\nexpected shape: %s", r, r.Notes)
}

func BenchmarkFig3DeviceIOPS(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig3a(s)
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFig3DeviceLatency(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig3b(s)
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFig3ProbeCycle(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig3c(s)
		if i == 0 {
			report(b, r)
		}
	}
}

// schemeRows caches the §V-A comparison shared by Fig7/8, Tables I/II and
// Fig9 so the bench suite does not rerun it five times.
var schemeCache []harness.SchemeRows

func schemes(b *testing.B) []harness.SchemeRows {
	b.Helper()
	if schemeCache == nil {
		schemeCache = harness.RunSchemes(benchScale(), []int{0, 10, 50})
	}
	return schemeCache
}

func BenchmarkFig7Throughput(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig7(schemes(b), s)
		if i == 0 {
			report(b, r)
			row := schemes(b)[1] // default workload
			b.ReportMetric(row.PA.Throughput/1e3, "PA-Kops/s")
			b.ReportMetric(row.Dedic[32].Throughput/1e3, "dedicated32-Kops/s")
		}
	}
}

func BenchmarkFig8Latency(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig8(schemes(b), s)
		if i == 0 {
			report(b, r)
			row := schemes(b)[1]
			b.ReportMetric(float64(row.PA.MeanLatency)/1e3, "PA-us")
			b.ReportMetric(float64(row.Dedic[128].MeanLatency)/1e3, "dedicated128-us")
		}
	}
}

func BenchmarkTable1Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Table1(schemes(b))
		if i == 0 {
			report(b, r)
			row := schemes(b)[1]
			b.ReportMetric(row.PA.Outstanding, "PA-outstanding")
			b.ReportMetric(float64(row.PA.CtxSwitches), "PA-ctxswitches")
			b.ReportMetric(float64(row.Dedic[32].CtxSwitches), "dedicated32-ctxswitches")
		}
	}
}

func BenchmarkTable2CPUPerOp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Table2(schemes(b))
		if i == 0 {
			report(b, r)
			row := schemes(b)[1]
			b.ReportMetric(row.PA.CyclesPerOp, "PA-Kcycles/op")
			b.ReportMetric(row.Shared[32].CyclesPerOp, "shared32-Kcycles/op")
		}
	}
}

func BenchmarkFig9Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig9(schemes(b))
		if i == 0 {
			report(b, r)
			row := schemes(b)[1]
			b.ReportMetric(row.PA.Breakdown[0]*100, "PA-realwork-%")
		}
	}
}

func BenchmarkFig10Probing(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig10(s)
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFig11DedicatedPolling(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig11(s)
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFig12Priority(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig12(s)
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFig13Yield(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig13(s)
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFig14Buffering(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig14(s)
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFig15EndToEnd(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r := harness.Fig15(s)
		if i == 0 {
			report(b, r)
		}
	}
}

// BenchmarkRealModePut measures the real-time public API (not a paper
// figure; a conventional ns/op bench for library users).
func BenchmarkRealModePut(b *testing.B) {
	db, err := Open(Options{Persistence: Weak})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := []byte("benchmark-value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(uint64(i), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealModeGet measures point lookups through the public API.
func BenchmarkRealModeGet(b *testing.B) {
	db, err := Open(Options{Persistence: Weak})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const keys = 10000
	for i := uint64(0); i < keys; i++ {
		if err := db.Put(i, []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get(uint64(i) % keys); !ok || err != nil {
			b.Fatalf("get: %v %v", ok, err)
		}
	}
}
