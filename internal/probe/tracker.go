// Package probe implements the workload-aware probing model of §IV-A: a
// linear regression that maps the recent history of outstanding I/O
// submissions to the expected number of imminent completions, so the
// working thread probes the NVMe interface only when the model predicts a
// completion is (or is about to be) available.
//
// Following the paper, the recent t microseconds are divided into n time
// slices (t=1000, n=20 by default); w[i] and r[i] count the *outstanding*
// write and read I/Os submitted within the i-th slice; the feature vector
// is T = w|r and the estimate is (w0, r0) = T·β, with β trained offline by
// ordinary least squares on traces collected from a variety of workloads.
// The paper trained with pandas; we ship our own OLS solver (ols.go).
package probe

import (
	"math"
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
)

// Default window parameters from the paper: "in practice, we set t = 1000
// and n = 20, because 99.9% of I/O requests complete within 1000
// microseconds and n = 20 provides enough resolution".
const (
	DefaultWindow = 1000 * time.Microsecond
	DefaultSlices = 20
)

// Tracker maintains the per-slice outstanding-submission counts that form
// the model's feature vector. It is single-threaded, like everything the
// working thread touches.
//
// The counts live in a ring of n slots, one per slice of the window, each
// stamped with the absolute slice index it counts. A slot is taken over
// by the first submission of a slice n slices newer, by which time its
// old slice has left every window the tracker is asked about (time only
// moves forward); a completion whose slot now holds a newer slice is
// ignored, as its own slice is out of sight.
type Tracker struct {
	slice time.Duration
	slots []slot // one per slice of the window
}

// slot counts the writes and reads submitted in slice idx and not yet
// completed.
type slot struct {
	idx    int64
	counts [2]int
}

// NewTracker creates a tracker with window w split into n slices.
func NewTracker(w time.Duration, n int) *Tracker {
	if w <= 0 {
		w = DefaultWindow
	}
	if n <= 0 {
		n = DefaultSlices
	}
	slots := make([]slot, n)
	for i := range slots {
		slots[i].idx = math.MinInt64
	}
	return &Tracker{slice: w / time.Duration(n), slots: slots}
}

// Slices returns n.
func (tr *Tracker) Slices() int { return len(tr.slots) }

// SliceDur returns the duration of one slice.
func (tr *Tracker) SliceDur() time.Duration { return tr.slice }

func (tr *Tracker) sliceIndex(at sim.Time) int64 {
	return int64(at) / int64(tr.slice)
}

// slotOf returns the slot slice idx maps to.
func (tr *Tracker) slotOf(idx int64) *slot {
	n := int64(len(tr.slots))
	return &tr.slots[(idx%n+n)%n]
}

// counts returns slice idx's counts, or nil when its slot holds another
// slice: then nothing submitted in idx is outstanding.
func (tr *Tracker) counts(idx int64) *[2]int {
	s := tr.slotOf(idx)
	if s.idx != idx {
		return nil
	}
	return &s.counts
}

// class indexes a command's counter: writes first, then reads.
func class(op nvme.Opcode) int {
	if op == nvme.OpWrite {
		return 0
	}
	return 1
}

// OnSubmit records an I/O submission at time at.
func (tr *Tracker) OnSubmit(op nvme.Opcode, at sim.Time) {
	idx := tr.sliceIndex(at)
	s := tr.slotOf(idx)
	if s.idx < idx {
		*s = slot{idx: idx}
	}
	if s.idx == idx {
		s.counts[class(op)]++
	}
}

// OnComplete removes a completed I/O from the outstanding counts, given
// its original submission time.
func (tr *Tracker) OnComplete(op nvme.Opcode, submittedAt sim.Time) {
	if c := tr.counts(tr.sliceIndex(submittedAt)); c != nil && c[class(op)] > 0 {
		c[class(op)]--
	}
}

// Vector builds the feature vector T = w|r as of time now, optionally
// shifted shiftSlices into the future (pretending time advanced with no
// new submissions — used for the yield decision of Algorithm 2).
// Length is 2n: w slices first (most recent first), then r slices.
func (tr *Tracker) Vector(now sim.Time, shiftSlices int) []float64 {
	out := make([]float64, 2*len(tr.slots))
	tr.FillVector(out, now, shiftSlices)
	return out
}

// FillVector is Vector without the allocation; out must have length 2n.
func (tr *Tracker) FillVector(out []float64, now sim.Time, shiftSlices int) {
	cur, n := tr.sliceIndex(now)+int64(shiftSlices), len(tr.slots)
	for i := 0; i < n; i++ {
		out[i], out[n+i] = 0, 0
		if c := tr.counts(cur - int64(i)); c != nil {
			out[i], out[n+i] = float64(c[0]), float64(c[1])
		}
	}
}

// Outstanding returns the total outstanding (writes, reads) inside the
// window as of now.
func (tr *Tracker) Outstanding(now sim.Time) (w, r int) {
	cur := tr.sliceIndex(now)
	for i := range tr.slots {
		if c := tr.counts(cur - int64(i)); c != nil {
			w += c[0]
			r += c[1]
		}
	}
	return w, r
}
