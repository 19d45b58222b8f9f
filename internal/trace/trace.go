// Package trace is a low-overhead, fixed-capacity ring-buffer event
// tracer for the PA-Tree pipeline. The emitting layer (internal/core's
// working thread) records compact binary events — no allocation, no
// formatting, no locks — and the ring keeps the most recent N of them.
// Export renders the captured window as Chrome trace-event JSON, which
// loads directly into Perfetto (ui.perfetto.dev) or chrome://tracing for
// stage-by-stage visual inspection of a workload run.
//
// Timestamps are int64 nanoseconds on whatever clock the emitter uses:
// the simulation's virtual clock and RealEnv's wall clock both work, and
// because events carry their own timestamps the export is byte-identical
// for identical runs (the determinism the simulated experiments rely on).
//
// The tracer is single-threaded by design: every event is emitted from
// the working thread (producer-side facts like admission wait arrive as
// timestamps on the operation and are emitted retroactively at drain
// time), so a nil check is the only cost tracing adds when disabled.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Event is one captured trace record. Code indexes the emitter's code
// name table (one Perfetto track per code), Class its class name table
// (e.g. the operation kind). Dur < 0 marks an instant event.
type Event struct {
	TS    int64 // ns on the emitter's clock
	Dur   int64 // ns; < 0 = instant
	Code  uint16
	Class uint16
	Seq   uint64 // operation sequence number (0 = none)
	Arg   uint64 // code-specific argument (page id, count, ...)
}

// Instant is the Dur value marking an instantaneous event.
const Instant int64 = -1

// RingEvents is the capacity of every serving-side trace ring — the
// embedder's per-shard rings, the server's and the client's: the window
// of most recent events each one retains (≈48 B an event).
const RingEvents = 65536

// Tracer is the bounded ring. Construct with New; the zero value drops
// every event.
type Tracer struct {
	buf        []Event
	next       int
	wrapped    bool
	emitted    uint64
	codeNames  []string
	classNames []string
}

// New returns a tracer keeping the most recent capacity events (minimum
// 16). codeNames and classNames label Code/Class values in the export;
// out-of-range values render numerically.
func New(capacity int, codeNames, classNames []string) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{buf: make([]Event, capacity), codeNames: codeNames, classNames: classNames}
}

// Emit records one event, overwriting the oldest once the ring is full.
func (t *Tracer) Emit(code, class uint16, seq, arg uint64, ts, dur int64) {
	if t == nil || len(t.buf) == 0 {
		return
	}
	t.buf[t.next] = Event{TS: ts, Dur: dur, Code: code, Class: class, Seq: seq, Arg: arg}
	t.next++
	t.emitted++
	if t.next == len(t.buf) {
		t.next = 0
		t.wrapped = true
	}
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.wrapped {
		return len(t.buf)
	}
	return t.next
}

// Emitted returns the total number of events ever emitted (held + lost
// to ring overwrite).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Events returns the held events in emission order (oldest first). The
// returned slice is a copy; safe to use after further emission.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// Reset drops every held event (capacity and name tables retained).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.next = 0
	t.wrapped = false
	t.emitted = 0
}

func (t *Tracer) codeName(c uint16) string {
	if int(c) < len(t.codeNames) {
		return t.codeNames[c]
	}
	return "code" + strconv.Itoa(int(c))
}

func (t *Tracer) className(c uint16) string {
	if int(c) < len(t.classNames) {
		return t.classNames[c]
	}
	return "class" + strconv.Itoa(int(c))
}

// WriteChromeJSON renders events as a Chrome trace-event JSON object.
// Slices become "X" (complete) events and instants become "i" events,
// each on a per-code track (pid 1, tid = code + 1) named by the code
// table; thread-name metadata rows come first. Timestamps are emitted in
// microseconds with nanosecond precision, formatted deterministically,
// so identical event sequences produce byte-identical JSON.
//
// Pass the events explicitly (usually Tracer.Events()) so a snapshot
// taken on the working thread can be exported from any goroutine.
func (t *Tracer) WriteChromeJSON(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
	}
	comma()
	fmt.Fprintf(bw, `{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"patree"}}`)
	// One named track per code that actually appears, in code order.
	seen := map[uint16]bool{}
	for _, e := range events {
		seen[e.Code] = true
	}
	for c := 0; c < 1<<16; c++ {
		if !seen[uint16(c)] {
			continue
		}
		comma()
		fmt.Fprintf(bw, `{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
			c+1, t.codeName(uint16(c)))
		delete(seen, uint16(c))
		if len(seen) == 0 {
			break
		}
	}
	for _, e := range events {
		comma()
		if e.Dur < 0 {
			fmt.Fprintf(bw, `{"ph":"i","s":"t","pid":1,"tid":%d,"ts":%s,"name":%q,"cat":"patree","args":{"op":%q,"seq":%d,"arg":%d}}`,
				e.Code+1, usec(e.TS), t.codeName(e.Code), t.className(e.Class), e.Seq, e.Arg)
		} else {
			fmt.Fprintf(bw, `{"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"name":%q,"cat":"patree","args":{"op":%q,"seq":%d,"arg":%d}}`,
				e.Code+1, usec(e.TS), usec(e.Dur), t.codeName(e.Code), t.className(e.Class), e.Seq, e.Arg)
		}
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// Process is one Chrome-trace process in a multi-process export: a
// display name and the event window captured by that process's tracer.
// Used by sharded exports, where every shard becomes its own process
// row with the familiar per-code thread lanes underneath, and by the
// serving tier's merged client/server/engine export.
type Process struct {
	Name   string
	Events []Event
	// CodeNames/ClassNames, when non-nil, label this process's events
	// instead of the exporting tracer's tables — the merged serving
	// export mixes processes from different emitters (client, server,
	// engine), each with its own vocabulary. Nil keeps the old behavior:
	// the exporting tracer's tables apply.
	CodeNames  []string
	ClassNames []string
}

func (p *Process) codeName(c uint16, fallback func(uint16) string) string {
	if p.CodeNames != nil {
		if int(c) < len(p.CodeNames) {
			return p.CodeNames[c]
		}
		return "code" + strconv.Itoa(int(c))
	}
	return fallback(c)
}

func (p *Process) className(c uint16, fallback func(uint16) string) string {
	if p.ClassNames != nil {
		if int(c) < len(p.ClassNames) {
			return p.ClassNames[c]
		}
		return "class" + strconv.Itoa(int(c))
	}
	return fallback(c)
}

// WriteChromeJSONProcs renders several event windows as one Chrome
// trace-event JSON object, one trace process per entry (pid = index+1,
// process_name metadata first, then the entry's thread-name metadata
// and events). The receiver supplies the code and class name tables
// for every process — shards share one emitter configuration, so their
// tables are identical. Formatting matches WriteChromeJSON, so the
// output is byte-identical for identical inputs.
func (t *Tracer) WriteChromeJSONProcs(w io.Writer, procs []Process) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
	}
	for pi := range procs {
		writeProc(bw, comma, pi+1, &procs[pi], t.codeName, t.className)
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// writeProc emits one process's metadata rows and events. fallbackCode/
// fallbackClass label events of processes that carry no tables of their
// own.
func writeProc(bw *bufio.Writer, comma func(), pid int, p *Process,
	fallbackCode, fallbackClass func(uint16) string) {
	comma()
	fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`, pid, p.Name)
	seen := map[uint16]bool{}
	for _, e := range p.Events {
		seen[e.Code] = true
	}
	for c := 0; c < 1<<16; c++ {
		if !seen[uint16(c)] {
			continue
		}
		comma()
		fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
			pid, c+1, p.codeName(uint16(c), fallbackCode))
		delete(seen, uint16(c))
		if len(seen) == 0 {
			break
		}
	}
	for _, e := range p.Events {
		comma()
		if e.Dur < 0 {
			fmt.Fprintf(bw, `{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"name":%q,"cat":"patree","args":{"op":%q,"seq":%d,"arg":%d}}`,
				pid, e.Code+1, usec(e.TS), p.codeName(e.Code, fallbackCode), p.className(e.Class, fallbackClass), e.Seq, e.Arg)
		} else {
			fmt.Fprintf(bw, `{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%q,"cat":"patree","args":{"op":%q,"seq":%d,"arg":%d}}`,
				pid, e.Code+1, usec(e.TS), usec(e.Dur), p.codeName(e.Code, fallbackCode), p.className(e.Class, fallbackClass), e.Seq, e.Arg)
		}
	}
}

// FlowPoint is one end of a flow arrow: a (process, code track, time)
// coordinate. The point must fall inside a slice on that track for the
// viewer to bind the arrow to it (Chrome flow events attach to the
// enclosing slice).
type FlowPoint struct {
	Proc int // index into the procs slice passed to the writer
	Code uint16
	TS   int64 // ns, on the same clock as the process's events
}

// Flow is one flow arrow chain linking a request's spans across
// processes: start → steps → end, all sharing the span id. Rendered as
// Chrome "s"/"t"/"f" flow events, which Perfetto draws as arrows
// between the slices enclosing each point.
type Flow struct {
	ID    uint64 // span id; must be unique per chain within one export
	Name  string
	Start FlowPoint
	Steps []FlowPoint
	End   FlowPoint
}

// WriteChromeJSONFlows renders several processes plus flow arrows as
// one Chrome trace-event JSON object. Unlike WriteChromeJSONProcs it is
// a package function: every process carries its own name tables (the
// merged serving export mixes client, server and engine vocabularies),
// with numeric fallbacks for processes that bring none. Output is
// deterministic for identical inputs.
func WriteChromeJSONFlows(w io.Writer, procs []Process, flows []Flow) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
	}
	numericCode := func(c uint16) string { return "code" + strconv.Itoa(int(c)) }
	numericClass := func(c uint16) string { return "class" + strconv.Itoa(int(c)) }
	for pi := range procs {
		writeProc(bw, comma, pi+1, &procs[pi], numericCode, numericClass)
	}
	point := func(ph string, f *Flow, p FlowPoint, bind string) {
		comma()
		fmt.Fprintf(bw, `{"ph":%q,%s"cat":"span","id":%d,"pid":%d,"tid":%d,"ts":%s,"name":%q}`,
			ph, bind, f.ID, p.Proc+1, p.Code+1, usec(p.TS), f.Name)
	}
	for i := range flows {
		f := &flows[i]
		point("s", f, f.Start, "")
		for _, s := range f.Steps {
			point("t", f, s, "")
		}
		// bp:"e" binds the arrow head to the enclosing slice rather than
		// the next slice on the track, which is what a span chain means.
		point("f", f, f.End, `"bp":"e",`)
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// usec formats ns as a decimal microsecond literal ("12.345"), the unit
// the trace-event format expects, without float formatting jitter.
func usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return neg + strconv.FormatInt(ns/1000, 10) + "." + fmt.Sprintf("%03d", ns%1000)
}
