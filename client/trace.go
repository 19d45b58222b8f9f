package client

import (
	"strconv"
	"sync/atomic"
	"time"

	"github.com/patree/patree/internal/proto"
	"github.com/patree/patree/internal/trace"
)

// Client-side trace event codes. Code 0 is the span anchor the stitcher
// looks for (trace.SpanCodeRequest): one slice per sampled request with
// Seq = span id, covering issue → response resolved. The rest break the
// client's share of the latency down: queueing to the writer, the
// socket write, and response decode.
const (
	ctRequest = iota // slice: issue → resolved (Seq = span)
	ctEnqueue        // instant: handed to the writer queue
	ctWrite          // instant: frame written to the socket buffer (arg: bytes)
	ctDecode         // slice: response frame read → result delivered
)

var clientCodeNames = []string{trace.SpanCodeRequest, "enqueue", "write", "decode"}

// spanIDs mints process-unique, nonzero span ids: unique across every
// Conn (pooled or not) so a merged trace never aliases two requests.
var spanIDs atomic.Uint64

// traceEpoch anchors the default client trace clock. Package-level so
// all pooled connections share one time axis even when dialed at
// different moments.
var traceEpoch = time.Now()

// defaultTraceNow is the clock used when Options.TraceNow is nil.
func defaultTraceNow() int64 { return time.Since(traceEpoch).Nanoseconds() }

// sample decides whether the next request is traced, returning its span
// id (0 = unsampled). Requests are only sampled once the server has
// negotiated trace propagation — before the hello response arrives (or
// against a v0 server, forever) every frame stays plain v0.
func (c *Conn) sample() uint64 {
	if c.tr == nil || !c.traceOK.Load() {
		return 0
	}
	if n := c.opts.SampleEvery; n > 1 && c.sampleN.Add(1)%uint64(n) != 0 {
		return 0
	}
	return spanIDs.Add(1)
}

// TraceProcess snapshots the connection's captured client-side events
// as one trace.Process (default name "client"), ready to merge with the
// server's and engine's processes via trace.WriteChromeJSONFlows. Nil
// when the connection was dialed without Options.Trace.
func (c *Conn) TraceProcess(name string) *trace.Process {
	if c.tr == nil {
		return nil
	}
	if name == "" {
		name = "client"
	}
	return &trace.Process{
		Name:       name,
		Events:     c.tr.Events(),
		CodeNames:  clientCodeNames,
		ClassNames: proto.KindNames[:], // class = bare wire kind
	}
}

// TraceProcesses snapshots every pooled connection's client-side events
// ("client0", "client1", ...). Empty when tracing is off.
func (p *Pool) TraceProcesses() []trace.Process {
	var procs []trace.Process
	for i, c := range p.conns {
		if tp := c.TraceProcess("client" + strconv.Itoa(i)); tp != nil {
			procs = append(procs, *tp)
		}
	}
	return procs
}
