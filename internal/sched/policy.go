package sched

import (
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/probe"
	"github.com/patree/patree/internal/sim"
)

// Policy decides when the working thread probes the NVMe interface and
// when it may yield its CPU. Implementations are fed every submission and
// every detected completion so they can track the instantaneous workload.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// OnSubmit observes an I/O submission.
	OnSubmit(op nvme.Opcode, now sim.Time)
	// OnDetected observes a completion at detection time, with the
	// command's original submission time.
	OnDetected(op nvme.Opcode, submittedAt, now sim.Time)
	// OnProbe observes that a probe was just performed.
	OnProbe(now sim.Time)
	// ShouldProbe reports whether to probe now, given the number of
	// I/O-blocked operations.
	ShouldProbe(now sim.Time, ioBlocked int) bool
	// YieldFor returns how long the thread should yield its CPU when the
	// ready set is empty (0 = keep spinning).
	YieldFor(now sim.Time, ioBlocked int) time.Duration
	// Overhead is the CPU cost the tree charges (as scheduling work) per
	// ShouldProbe evaluation; the model-based policy pays for its
	// prediction, the trivial ones are nearly free.
	Overhead() time.Duration
}

// AlwaysProbe is Algorithm 1's rule: probe on every loop iteration that
// has blocked I/O. Its zero value never yields, the paper's naive
// baseline. With Idle set it is the wall-clock backend's rule: a probe
// there is cheap host work with no controller interference to amortise,
// so a posted completion is reaped at once, and a worker with nothing in
// flight yields Idle (a wall-clock park that the next admission ends).
type AlwaysProbe struct {
	// Idle is the yield granularity when no I/O is outstanding (0 =
	// keep spinning).
	Idle time.Duration
}

// NewAlwaysProbe returns the naive policy.
func NewAlwaysProbe() *AlwaysProbe { return &AlwaysProbe{} }

// Name implements Policy.
func (*AlwaysProbe) Name() string { return "naive" }

// OnSubmit implements Policy.
func (*AlwaysProbe) OnSubmit(nvme.Opcode, sim.Time) {}

// OnDetected implements Policy.
func (*AlwaysProbe) OnDetected(nvme.Opcode, sim.Time, sim.Time) {}

// OnProbe implements Policy.
func (*AlwaysProbe) OnProbe(sim.Time) {}

// ShouldProbe implements Policy.
func (*AlwaysProbe) ShouldProbe(_ sim.Time, ioBlocked int) bool { return ioBlocked > 0 }

// YieldFor implements Policy: Idle when nothing is in flight, else 0.
func (p *AlwaysProbe) YieldFor(_ sim.Time, ioBlocked int) time.Duration {
	if ioBlocked == 0 {
		return p.Idle
	}
	return 0
}

// Overhead implements Policy.
func (*AlwaysProbe) Overhead() time.Duration { return 20 * time.Nanosecond }

// FixedCycle probes at a fixed period, the strawman swept in Figure 10.
type FixedCycle struct {
	cycle     time.Duration
	lastProbe sim.Time
}

// NewFixedCycle returns a fixed-period policy.
func NewFixedCycle(cycle time.Duration) *FixedCycle {
	return &FixedCycle{cycle: cycle, lastProbe: -1 << 62}
}

// Name implements Policy.
func (p *FixedCycle) Name() string { return "fixed(" + p.cycle.String() + ")" }

// OnSubmit implements Policy.
func (*FixedCycle) OnSubmit(nvme.Opcode, sim.Time) {}

// OnDetected implements Policy.
func (*FixedCycle) OnDetected(nvme.Opcode, sim.Time, sim.Time) {}

// OnProbe implements Policy.
func (p *FixedCycle) OnProbe(now sim.Time) { p.lastProbe = now }

// ShouldProbe implements Policy.
func (p *FixedCycle) ShouldProbe(now sim.Time, ioBlocked int) bool {
	return ioBlocked > 0 && now.Sub(p.lastProbe) >= p.cycle
}

// YieldFor implements Policy.
func (*FixedCycle) YieldFor(sim.Time, int) time.Duration { return 0 }

// Overhead implements Policy.
func (*FixedCycle) Overhead() time.Duration { return 20 * time.Nanosecond }

// AvgLatency probes every avg(t) µs where avg(t) is the mean I/O
// completion latency over the last second — the first strawman of §V-B.
// The sliding window is implemented as rotating 100ms buckets.
type AvgLatency struct {
	buckets   [10]struct{ sum, count float64 }
	curBucket int64
	lastProbe sim.Time
	fallback  time.Duration
}

// NewAvgLatency returns the average-latency policy.
func NewAvgLatency() *AvgLatency {
	return &AvgLatency{lastProbe: -1 << 62, fallback: 100 * time.Microsecond}
}

// Name implements Policy.
func (*AvgLatency) Name() string { return "avg-latency" }

// OnSubmit implements Policy.
func (*AvgLatency) OnSubmit(nvme.Opcode, sim.Time) {}

const avgBucketWidth = 100 * time.Millisecond

// OnDetected implements Policy.
func (p *AvgLatency) OnDetected(_ nvme.Opcode, submittedAt, now sim.Time) {
	b := int64(now) / int64(avgBucketWidth)
	if b != p.curBucket {
		// Zero every bucket that rotated past since the last sample.
		steps := b - p.curBucket
		if steps > int64(len(p.buckets)) {
			steps = int64(len(p.buckets))
		}
		for i := int64(1); i <= steps; i++ {
			idx := (p.curBucket + i) % int64(len(p.buckets))
			p.buckets[idx] = struct{ sum, count float64 }{}
		}
		p.curBucket = b
	}
	idx := b % int64(len(p.buckets))
	p.buckets[idx].sum += float64(now.Sub(submittedAt))
	p.buckets[idx].count++
}

// OnProbe implements Policy.
func (p *AvgLatency) OnProbe(now sim.Time) { p.lastProbe = now }

// avg returns the windowed mean completion latency.
func (p *AvgLatency) avg() time.Duration {
	var sum, count float64
	for _, b := range p.buckets {
		sum += b.sum
		count += b.count
	}
	if count == 0 {
		return p.fallback
	}
	return time.Duration(sum / count)
}

// ShouldProbe implements Policy.
func (p *AvgLatency) ShouldProbe(now sim.Time, ioBlocked int) bool {
	return ioBlocked > 0 && now.Sub(p.lastProbe) >= p.avg()
}

// YieldFor implements Policy.
func (*AvgLatency) YieldFor(sim.Time, int) time.Duration { return 0 }

// Overhead implements Policy.
func (*AvgLatency) Overhead() time.Duration { return 40 * time.Nanosecond }

// probeSafety is the workload-aware policy's probe-deadline backstop: if
// the model mispredicts, it still probes after this interval so no
// completion waits unboundedly. (Implementation addition, see DESIGN.md;
// it fires rarely: Backstops counts it.)
const probeSafety = 200 * time.Microsecond

// Workload is the workload-aware policy of Algorithm 2: it probes when
// the linear model predicts at least one completion is (or is imminently)
// available, and yields the CPU when the ready set is empty and the model
// predicts no completion within the yield granularity.
type Workload struct {
	model   *probe.Model
	tracker *probe.Tracker
	// YieldGranularity is the t µs of Algorithm 2; zero disables yielding
	// (the Figure 13 "without CPU yielding" configuration).
	yieldGranularity time.Duration
	// batch is the expected-available count that makes a probe worth its
	// driver interference; minInterval bounds the probe rate when load is
	// light so single completions are still detected promptly.
	batch       float64
	minInterval time.Duration
	lastProbe   sim.Time
	vecBuf      []float64
	backstops   uint64

	// expected integrates the model's completion rate since the last
	// probe, advanced to lastEval.
	expected float64
	lastEval sim.Time
	// out counts the commands in flight, outWrites the writes among
	// them and outSince sums their submission times: with one in flight,
	// outSince is its submission time. median is each class's
	// MedianAge (writes, reads), when a lone command is first probed for.
	out, outWrites int
	outSince       sim.Time
	median         [2]time.Duration

	// acc, when enabled, scores the model's predictions against observed
	// completion times (probe introspection). Pure observation: it never
	// changes probe or yield decisions.
	acc *probe.Accuracy
}

// NewWorkload builds the workload-aware policy around a trained model.
func NewWorkload(m *probe.Model, tr *probe.Tracker, yieldGranularity time.Duration) *Workload {
	if tr == nil {
		tr = probe.NewTracker(probe.DefaultWindow, m.Slices())
	}
	return &Workload{
		model:            m,
		tracker:          tr,
		yieldGranularity: yieldGranularity,
		batch:            4,
		minInterval:      25 * time.Microsecond,
		lastProbe:        -1 << 62,
		vecBuf:           make([]float64, 2*m.Slices()),
		median:           [2]time.Duration{m.MedianAge(nvme.OpWrite, tr.SliceDur()), m.MedianAge(nvme.OpRead, tr.SliceDur())},
	}
}

// Name implements Policy.
func (*Workload) Name() string { return "workload-aware" }

// SetBatch adjusts the expected-available threshold that makes a probe
// worth its driver interference (ablation studies; default 4).
func (p *Workload) SetBatch(b float64) {
	if b < 1 {
		b = 1
	}
	p.batch = b
}

// Backstops returns how many probes the safety deadline forced where the
// model did not call for one.
func (p *Workload) Backstops() uint64 { return p.backstops }

// Tracker exposes the tracker (tests and the dedicated-poller variant).
func (p *Workload) Tracker() *probe.Tracker { return p.tracker }

// EnableAccuracy starts scoring the model's completion-time predictions
// (see probe.Accuracy) and returns the tracker. Idempotent.
func (p *Workload) EnableAccuracy() *probe.Accuracy {
	if p.acc == nil {
		p.acc = probe.NewAccuracy()
	}
	return p.acc
}

// Accuracy returns the prediction-error tracker, or nil when disabled.
func (p *Workload) Accuracy() *probe.Accuracy { return p.acc }

// OnSubmit implements Policy.
func (p *Workload) OnSubmit(op nvme.Opcode, now sim.Time) {
	if p.out == 0 {
		p.lastEval = now // nothing was in flight, so nothing was expected
	}
	p.out++
	p.outSince += now
	if op == nvme.OpWrite {
		p.outWrites++
	}
	p.tracker.OnSubmit(op, now)
	if p.acc != nil {
		p.acc.Expect(op, now, now.Add(p.predictLatency(op, now)))
	}
}

// predictLatency derives the model-implied completion latency for an I/O
// submitted now: the model estimates the per-slice completion rate, and
// with k same-class I/Os already outstanding the new one is expected
// after (k+1)/rate. A zero rate (cold model, empty window) falls back to
// the tracker window; the result is clamped to [1µs, 100ms] so a wild
// misprediction scores as a large-but-finite error.
func (p *Workload) predictLatency(op nvme.Opcode, now sim.Time) time.Duration {
	p.tracker.FillVector(p.vecBuf, now, 0)
	w0, r0 := p.model.Predict(p.vecBuf)
	wOut, rOut := p.tracker.Outstanding(now)
	pred, out := r0, rOut
	if op == nvme.OpWrite {
		pred, out = w0, wOut
	}
	if out < 1 {
		out = 1 // the tracker already counts this submission
	}
	var lat time.Duration
	if pred <= 0 {
		lat = probe.DefaultWindow
	} else {
		// pred completions per slice → out/pred slices until this one.
		lat = time.Duration(float64(out) / pred * float64(p.tracker.SliceDur()))
	}
	if lat < time.Microsecond {
		lat = time.Microsecond
	}
	if lat > 100*time.Millisecond {
		lat = 100 * time.Millisecond
	}
	return lat
}

// OnDetected implements Policy.
func (p *Workload) OnDetected(op nvme.Opcode, submittedAt, now sim.Time) {
	p.out--
	p.outSince -= submittedAt
	if op == nvme.OpWrite {
		p.outWrites--
	}
	p.tracker.OnComplete(op, submittedAt)
	if p.acc != nil {
		p.acc.Observe(op, now)
	}
}

// OnProbe implements Policy: the count of expected completions starts
// over, whether or not the probe found any.
func (p *Workload) OnProbe(now sim.Time) {
	p.lastProbe, p.lastEval, p.expected = now, now, 0
}

// loneDue is when the gate probes for the one command in flight: at its
// class's median age, and every minInterval after a probe at or past it.
func (p *Workload) loneDue() sim.Time {
	due := p.outSince.Add(p.median[1-p.outWrites])
	if p.lastProbe >= due {
		due = p.lastProbe.Add(p.minInterval)
	}
	return due
}

// ShouldProbe implements Policy: probe when the model predicts completed
// I/Os are available to reap (Algorithm 2 lines 6–8). The model estimates
// the per-slice completion rate (w0, r0) = T·β; the number available
// since the last probe is that rate integrated over the evaluations since.
// Probing is worth its driver interference when a small batch has
// accumulated, or after a modest interval when at least one completion
// is expected. A lone command, whose integral stays below one, is probed
// for from its median age on. The safety deadline bounds mispredictions.
func (p *Workload) ShouldProbe(now sim.Time, ioBlocked int) bool {
	if ioBlocked == 0 {
		return false
	}
	p.tracker.FillVector(p.vecBuf, now, 0)
	w0, r0 := p.model.Predict(p.vecBuf)
	p.expected += (w0 + r0) / float64(p.tracker.SliceDur()) * float64(now.Sub(p.lastEval))
	p.lastEval = now
	elapsed := now.Sub(p.lastProbe)
	if p.expected >= p.batch || p.expected >= 1 && elapsed >= p.minInterval ||
		p.out == 1 && now >= p.loneDue() {
		return true
	}
	if elapsed >= probeSafety {
		p.backstops++
		return true
	}
	return false
}

// YieldFor implements Policy (Algorithm 2 lines 9–11): with the feature
// vector shifted t µs into the future, yield when the completions
// expected within the yield granularity fall short of a probe batch —
// spinning would only wait for work the probe gate will not reap yet, so
// sleeping loses nothing and saves the CPU (Figure 13). A lone command's
// yield ends when its probe is due.
func (p *Workload) YieldFor(now sim.Time, ioBlocked int) time.Duration {
	if p.yieldGranularity <= 0 {
		return 0
	}
	if ioBlocked == 0 {
		// Nothing in flight: nothing can become ready except new
		// admissions, which the yield period bounds (and which end a
		// wall-clock park early), so the idle worker always yields.
		return p.yieldGranularity
	}
	if p.out == 1 {
		return min(p.yieldGranularity, max(p.loneDue().Sub(now), 0))
	}
	shift := int(p.yieldGranularity / p.tracker.SliceDur())
	if shift < 1 {
		shift = 1
	}
	p.tracker.FillVector(p.vecBuf, now, shift)
	w0, r0 := p.model.Predict(p.vecBuf)
	expected := (w0 + r0) / float64(p.tracker.SliceDur()) * float64(p.yieldGranularity)
	if expected < p.batch {
		return p.yieldGranularity
	}
	return 0
}

// Overhead implements Policy: evaluating a 40-feature dot product.
func (*Workload) Overhead() time.Duration { return 150 * time.Nanosecond }
