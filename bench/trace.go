package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/patree/patree/internal/nvme"
)

// samples holds exact observations (nanoseconds); percentiles sort a
// copy, so reported values keep every digit the clock gave.
type samples []int64

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// median of a sorted slice, interpolating between the middle pair.
func (s samples) median() float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}

// tail of a sorted slice: the 99th percentile when at least ten samples
// lie beyond it, else the highest percentile that has ten beyond it
// (never below the median).
func (s samples) tail() float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-k < 10 {
		k = n - 11
	}
	if k < n/2 {
		k = n / 2
	}
	return float64(s[k])
}

// medianOf is the median of a handful of values.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds on the workload's clock (wall time since the run began, or
// virtual time); Parent is the span that caused this one, 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names, one per boundary the benchmark can see from outside.
const (
	spanOp     = "op"           // one blocking client call (unloaded phase)
	spanGroup  = "group"        // one 32-op group (loaded phase)
	spanCommit = "group.commit" // staging handed to the store
	spanWait   = "group.wait"   // waiting for the group's results
	spanStore  = "store.batch"  // the Store wrapper under the server: commit → last result
)

var spanNames = map[nvme.Opcode]string{
	nvme.OpRead:  "nvme.read",
	nvme.OpWrite: "nvme.write",
	nvme.OpFlush: "nvme.flush",
}

// maxSpans bounds the in-memory span log (≈ 56 B each).
const maxSpans = 400_000

// tracer keeps spans in memory and writes them as JSON when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// detail is set during the unloaded phase, when one client operation
	// is in flight and cur names it: spans opened below the client (store
	// batch, device commands) can then be parented to it without any id
	// travelling through the system. In the loaded phase only group-level
	// spans are kept.
	detail atomic.Bool
	cur    atomic.Uint64
}

// open starts a span and returns its id (0 when the log is full).
func (t *tracer) open(name string, parent uint64, at int64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: at})
	return id
}

// begin starts a span below the current client operation, if there is
// one. A nil tracer records nothing and returns 0, which end ignores.
func (t *tracer) begin(name string, at int64) uint64 {
	if t == nil || !t.detail.Load() {
		return 0
	}
	return t.open(name, t.cur.Load(), at)
}

func (t *tracer) end(id uint64, at int64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// selfTimes returns, per span name, each span's duration minus the part
// of it that its child spans cover (children clipped to the parent and
// merged where they overlap).
func (t *tracer) selfTimes() map[string]samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[uint64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]samples)
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, edge := int64(0), s.Start
		for _, k := range iv {
			lo, hi := k[0], k[1]
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered)
	}
	return out
}

// selfNote summarizes the span log for the result table: the median self
// time per span name.
func (t *tracer) selfNote() string {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	out := "median self time, us:"
	for _, n := range names {
		out += fmt.Sprintf(" %s=%.1f (n=%d)", n, self[n].sorted().median()/1e3, len(self[n]))
	}
	return out
}

// write stores the span log as one JSON document.
func (t *tracer) write(path string, header map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"header": header, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
