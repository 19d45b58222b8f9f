// Package metrics provides the measurement instruments used throughout the
// reproduction: log-bucketed latency histograms, CPU-time accounting broken
// down by the categories of the paper's Figure 9, windowed throughput
// series, and plain-text table rendering for the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"
)

// Histogram is a log-linear bucketed histogram of durations, similar in
// spirit to HdrHistogram: values are bucketed with ~3% relative precision
// across nanoseconds to minutes. It is not safe for concurrent use; the
// simulation is single-threaded by construction.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

// Bucketing: 64 major buckets (one per power of two of nanoseconds), each
// split into 32 linear sub-buckets.
const (
	subBucketBits  = 5
	subBuckets     = 1 << subBucketBits
	histNumBuckets = 64 * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint64, histNumBuckets),
		min:    math.MaxInt64,
	}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v))
	shift := msb - subBucketBits
	sub := int(v>>uint(shift)) - subBuckets // in [0, subBuckets)
	return (shift+1)*subBuckets + sub
}

// bucketLow returns the lowest value mapping to bucket i; used to
// reconstruct approximate values for percentiles.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	shift := i/subBuckets - 1
	sub := i % subBuckets
	return int64(subBuckets+sub) << uint(shift)
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean observation, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.total))
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Percentile returns the approximate p-th percentile. p is clamped into
// (0, 100]: non-positive (or NaN) p returns the minimum, p >= 100 the
// maximum, and an empty histogram reports 0 for every p.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if math.IsNaN(p) || p <= 0 {
		return time.Duration(h.min)
	}
	if p >= 100 {
		return time.Duration(h.max)
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			// Midpoint of the bucket, clamped to observed range.
			lo := bucketLow(i)
			hi := bucketLow(i + 1)
			mid := (lo + hi) / 2
			if mid > h.max {
				mid = h.max
			}
			if mid < h.min {
				mid = h.min
			}
			return time.Duration(mid)
		}
	}
	return time.Duration(h.max)
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Merge adds all observations of o into h (combining per-stage or
// per-window histograms across resets). A nil or empty o is a no-op, so
// merging never corrupts h's min/max sentinels.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

// Summary formats the headline statistics on one line.
func (h *Histogram) Summary() string {
	if h.total == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.total, h.Mean().Round(time.Nanosecond), h.Percentile(50), h.Percentile(99), h.Max())
}

// Counter is a monotonically increasing count.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Gauge tracks a level (e.g., outstanding I/Os) and its time-weighted
// average. Times are supplied by the caller so the gauge works with the
// virtual clock.
type Gauge struct {
	level    int64
	weighted float64 // integral of level over time
	lastT    int64
	startT   int64
	started  bool
	maxLevel int64
	samples  uint64
}

// Set moves the gauge to level v at time now (nanoseconds).
func (g *Gauge) Set(now int64, v int64) {
	if !g.started {
		g.started = true
		g.startT = now
		g.lastT = now
	}
	g.weighted += float64(g.level) * float64(now-g.lastT)
	g.lastT = now
	g.level = v
	if v > g.maxLevel {
		g.maxLevel = v
	}
	g.samples++
}

// Add adjusts the gauge by delta at time now.
func (g *Gauge) Add(now int64, delta int64) { g.Set(now, g.level+delta) }

// Level returns the instantaneous level.
func (g *Gauge) Level() int64 { return g.level }

// Max returns the highest level seen.
func (g *Gauge) Max() int64 { return g.maxLevel }

// Avg returns the time-weighted average level up to time now.
func (g *Gauge) Avg(now int64) float64 {
	if !g.started || now <= g.startT {
		return float64(g.level)
	}
	w := g.weighted + float64(g.level)*float64(now-g.lastT)
	return w / float64(now-g.startT)
}

// Table renders aligned plain-text tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func trimFloat(v float64) string {
	a := math.Abs(v)
	switch {
	case v == math.Trunc(v) && a < 1e15:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
