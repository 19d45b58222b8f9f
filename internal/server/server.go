// Package server is the PA-Tree network serving tier: it speaks the
// internal/proto framing over any net.Listener and feeds every
// connection's operations straight into a patree.Store's admission
// pipeline.
//
// The design extends the paper's polled-mode admission path across the
// network boundary:
//
//   - Each connection's reader goroutine decodes pipelined request
//     frames and stages them on a patree.Batch — one admission-ring
//     transaction per network read burst, so a burst of N pipelined
//     requests costs one ring hand-off, exactly like an embedded
//     caller using the batch API.
//   - Admission is always non-blocking (Batch.TryCommit). When a
//     shard's MPSC ring is full, ErrBacklog surfaces to the client as
//     one StatusBusy response per refused request — wire-level flow
//     control the client backs off on, never a dropped ack and never a
//     reader goroutine wedged against a saturated worker.
//   - A bounded pool of completion dispatchers waits on the admitted
//     batches' handles and streams responses back through a writer
//     goroutine that coalesces frames per flush. Responses complete
//     out of order across bursts, keyed by request id.
//   - A wire batch frame (proto.KindBatch) is admitted as one
//     patree.Batch TryCommit, so its atomicity — including cross-shard
//     all-or-nothing — holds end to end.
//
// The server programs only against patree.Store, so it can front an
// embedded *DB or, in principle, another remote store.
package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/internal/proto"
	"github.com/patree/patree/internal/trace"
)

// Each connection's fixed parameters.
const (
	// dispatchers bounds the per-connection completion dispatchers, and
	// with them the admitted-but-unanswered bursts in flight. When all
	// are busy the reader stalls, pushing backpressure into the TCP
	// window.
	dispatchers = 8
	// bufSize sizes the per-connection buffered reader and writer.
	bufSize = 64 << 10
)

// Options tunes a Server. The zero value selects sensible defaults.
type Options struct {
	// BurstOps caps how many pipelined single-op requests are staged
	// into one admission transaction (default 256). It must not exceed
	// the store's admission ring depth or bursts could never admit.
	BurstOps int
	// Logf, when set, receives connection-level error logs and the
	// slow-op log.
	Logf func(format string, args ...any)

	// Trace enables server-side span recording for requests that arrive
	// carrying a trace context (proto.FlagSpan). The handshake is always
	// answered — version negotiation costs nothing — but without Trace
	// the server offers no trace flag, so clients never sample.
	Trace bool
	// TraceNow overrides the trace/metrics clock (nanoseconds). Point it
	// at the engine's clock (patree.DB.TraceNow) so the merged export
	// shares one time axis; nil uses a process-local monotonic clock.
	TraceNow func() int64
	// SlowOp, when positive, logs any request whose wire latency
	// (arrival → response enqueued) exceeds it, with the full server-side
	// stage breakdown, through Logf.
	SlowOp time.Duration
}

func (o *Options) fill() {
	if o.BurstOps <= 0 {
		o.BurstOps = 256
	}
	if o.TraceNow == nil {
		o.TraceNow = defaultServerNow
	}
}

// serverEpoch anchors the default server clock; package-level so every
// Server in a process shares one time axis.
var serverEpoch = time.Now()

func defaultServerNow() int64 { return time.Since(serverEpoch).Nanoseconds() }

// Stats is a snapshot of server activity counters, each declared once
// by its tag (internal/metrics schema).
type Stats struct {
	Accepted    uint64 `metric:"patree_server_connections_accepted_total counter sum" help:"Connections accepted over the server's lifetime."`
	Active      uint64 `metric:"patree_server_connections_active gauge sum" help:"Connections currently open."`
	Ops         uint64 `metric:"patree_server_ops_total counter sum" help:"Single operations admitted."`
	BatchOps    uint64 `metric:"patree_server_batch_ops_total counter sum" help:"Operations admitted inside wire batches."`
	WireBatches uint64 `metric:"patree_server_wire_batches_total counter sum" help:"Wire batch frames admitted."`
	Busy        uint64 `metric:"patree_server_busy_total counter sum" help:"Requests refused with StatusBusy (flow control)."`
	BadFrames   uint64 `metric:"patree_server_bad_frames_total counter sum" help:"Malformed requests answered with StatusBadRequest."`
}

// Server serves the PA-Tree wire protocol over a Store.
type Server struct {
	store patree.Store
	opts  Options

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup

	accepted    atomic.Uint64
	active      atomic.Uint64
	ops         atomic.Uint64
	batchOps    atomic.Uint64
	wireBatches atomic.Uint64
	busy        atomic.Uint64
	badFrames   atomic.Uint64
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64

	met srvMetrics    // always-on wire instrumentation
	tr  *trace.Locked // sampled spans; nil when Options.Trace is off
	now func() int64
}

// New returns a Server fronting store.
func New(store patree.Store, opts Options) *Server {
	opts.fill()
	s := &Server{
		store: store,
		opts:  opts,
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[*srvConn]struct{}),
		now:   opts.TraceNow,
	}
	if opts.Trace {
		s.tr = trace.NewLocked(trace.RingEvents, serverCodeNames, proto.KindNames[:], opts.TraceNow)
	}
	return s
}

// Stats snapshots the activity counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:    s.accepted.Load(),
		Active:      s.active.Load(),
		Ops:         s.ops.Load(),
		BatchOps:    s.batchOps.Load(),
		WireBatches: s.wireBatches.Load(),
		Busy:        s.busy.Load(),
		BadFrames:   s.badFrames.Load(),
	}
}

// Serve accepts connections on ln until Close (or a listener error) and
// blocks meanwhile. Multiple Serve calls on different listeners are
// allowed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return patree.ErrClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		sc := newSrvConn(s, c)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		s.active.Add(1)
		go sc.run()
	}
}

// Close stops accepting, tears down every connection and waits for all
// connection goroutines to drain. Operations already admitted to the
// store complete there; their responses are dropped with the
// connections. The store itself is not closed — it belongs to the
// caller.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.shut()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// respBufPool recycles response frame buffers between dispatchers and
// the writer.
var respBufPool = sync.Pool{New: func() any { return make([]byte, 0, 512) }}

// burstState accumulates one read burst of pipelined single-op
// requests in neutral form. Ops are kept decoded (not staged on a
// Batch) until flush so that a backlogged admission can retry smaller
// prefixes without re-decoding.
type burstState struct {
	ids []uint64
	ops []patree.BatchOp // Span is the request's trace span (0 = unsampled)
	arr []int64          // arrival timestamps (server clock), for wire latency
}

var burstPool = sync.Pool{New: func() any { return new(burstState) }}

// srvConn is one client connection.
type srvConn struct {
	s    *Server
	c    net.Conn
	br   *bufio.Reader
	resp chan []byte
	dead chan struct{}
	once sync.Once
	wg   sync.WaitGroup // writer + dispatchers
	sem  chan struct{}  // dispatcher slots
}

func newSrvConn(s *Server, c net.Conn) *srvConn {
	return &srvConn{
		s:    s,
		c:    c,
		br:   bufio.NewReaderSize(c, bufSize),
		resp: make(chan []byte, 4*dispatchers),
		dead: make(chan struct{}),
		sem:  make(chan struct{}, dispatchers),
	}
}

// shut tears the connection down: it unblocks the reader and writer by
// closing the socket and signals the dispatchers to stop enqueueing.
// Idempotent and safe from any goroutine.
func (c *srvConn) shut() {
	c.once.Do(func() {
		close(c.dead)
		c.c.Close()
	})
}

// run is the connection's reader loop; it owns teardown.
func (c *srvConn) run() {
	defer func() {
		c.shut()
		c.wg.Wait() // writer + dispatchers (they drain their batches first)
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
		c.s.active.Add(^uint64(0))
		c.s.wg.Done()
	}()
	c.wg.Add(1)
	go c.writeLoop()

	var (
		rbuf  []byte
		burst *burstState
	)
	for {
		body, err := proto.ReadFrame(c.br, rbuf)
		if err != nil {
			if burst != nil {
				c.flushBurst(burst)
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.s.logf("patree/server: %s: read: %v", c.c.RemoteAddr(), err)
			}
			return
		}
		c.s.bytesIn.Add(uint64(4 + len(body)))
		rbuf = body[:0]
		id := proto.FrameID(body)
		rawKind := proto.FrameKind(body)
		kind, span, payload, ok := proto.SplitSpan(rawKind, proto.FrameBody(body))
		if !ok {
			c.s.badFrames.Add(1)
			c.sendStatus(id, proto.StatusBadRequest, "short span prefix")
			continue
		}
		arrival := c.s.now()
		if span != 0 && c.s.tr != nil {
			c.s.tr.Emit(stRecv, uint16(kind), span, id, arrival, trace.Instant)
		}

		if kind == proto.KindHello {
			// Negotiate version/flags. The hello is a pipeline barrier like
			// a wire batch: admit the pending burst first so the response
			// order mirrors admission order.
			if burst != nil {
				burst = c.flushBurst(burst)
			}
			c.handleHello(id, payload)
			continue
		}
		if kind == proto.KindBatch {
			// A wire batch is its own atomicity unit; admit the pending
			// burst first so per-connection admission order is preserved.
			if burst != nil {
				burst = c.flushBurst(burst)
			}
			c.handleWireBatch(id, span, payload, arrival)
			continue
		}
		if burst == nil {
			burst = burstPool.Get().(*burstState)
		}
		if op, err := proto.DecodeRequest(kind, payload); err != nil {
			// Malformed op: answered with BadRequest, nothing staged.
			c.s.badFrames.Add(1)
			c.sendStatus(id, proto.StatusBadRequest, err.Error())
		} else {
			op.Span = span
			burst.ids = append(burst.ids, id)
			burst.ops = append(burst.ops, op)
			burst.arr = append(burst.arr, arrival)
		}
		// Admit when the burst is full or the next complete frame is not
		// already buffered — blocking on the socket with staged-but-
		// unadmitted work would stall the pipeline.
		if len(burst.ops) >= c.s.opts.BurstOps || !c.frameBuffered() {
			burst = c.flushBurst(burst)
		}
	}
}

// frameBuffered reports whether a complete frame is already waiting in
// the read buffer.
func (c *srvConn) frameBuffered() bool {
	if c.br.Buffered() < 4 {
		return false
	}
	hdr, err := c.br.Peek(4)
	return err == nil && c.br.Buffered() >= proto.FrameSize(hdr)
}

// handleHello answers the protocol handshake: the offered (version,
// flags) clamped to what this build speaks, with the trace flag only
// granted when the server itself records spans.
func (c *srvConn) handleHello(id uint64, p []byte) {
	v, f, err := proto.ParseHello(p)
	if err != nil {
		c.s.badFrames.Add(1)
		c.sendStatus(id, proto.StatusBadRequest, "malformed hello")
		return
	}
	v, f = proto.Negotiate(v, f)
	if c.s.tr == nil {
		f &^= proto.HelloFlagTrace
	}
	buf := respBufPool.Get().([]byte)[:0]
	buf = proto.AppendHello(buf, id, proto.StatusOK, v, f)
	c.s.met.recordStatus(proto.StatusOK)
	c.send(buf)
}

// flushBurst admits the pending burst as one ring transaction when it
// fits. When the rings are backlogged it degrades gracefully instead of
// livelocking: progressively smaller prefixes are tried (the ops are
// independent pipelined singles, so splitting them is semantically
// free), and ops that cannot be admitted even alone are refused with
// StatusBusy — wire flow control the client backs off and retransmits
// on. This also removes any coupling between BurstOps and the store's
// ring depth: a burst larger than the ring admits in chunks. Any
// non-backlog admission error maps through the taxonomy. Always returns
// nil, for `burst = c.flushBurst(burst)` call sites.
func (c *srvConn) flushBurst(burst *burstState) *burstState {
	flushed := c.s.now()
	c.s.met.recordBurst(len(burst.ops))
	i := 0
	for i < len(burst.ops) {
		n := len(burst.ops) - i
		attempts := 0
		for {
			attempts++
			b := c.s.store.NewBatch()
			for _, op := range burst.ops[i : i+n] {
				b.Stage(op)
			}
			err := b.TryCommit()
			if err == nil {
				c.s.ops.Add(uint64(n))
				admitted := c.s.now()
				if c.s.tr != nil {
					for _, op := range burst.ops[i : i+n] {
						if op.Span != 0 {
							c.s.tr.Emit(stAdmit, uint16(op.Kind), op.Span,
								uint64(attempts), flushed, admitted-flushed)
						}
					}
				}
				if n == len(burst.ops) && i == 0 {
					// Common case: the whole burst admitted at once; the
					// dispatcher takes ownership of the state's slices.
					c.dispatch(b, burst.ids, burst.ops, burst.arr, admitted, attempts,
						func() { releaseBurst(burst) })
					return nil
				}
				// Split admission: copy the chunk's ids/ops/arrivals, the
				// state is reused for the rest of the loop.
				ids := append([]uint64(nil), burst.ids[i:i+n]...)
				ops := append([]patree.BatchOp(nil), burst.ops[i:i+n]...)
				arr := append([]int64(nil), burst.arr[i:i+n]...)
				c.dispatch(b, ids, ops, arr, admitted, attempts, nil)
				i += n
				break
			}
			b.Release()
			if status := proto.StatusOf(err); status != proto.StatusBusy {
				// Terminal (closed, device failed): refuse everything left.
				for _, id := range burst.ids[i:] {
					c.sendStatus(id, status, "")
				}
				releaseBurst(burst)
				return nil
			}
			if n == 1 {
				c.s.busy.Add(1)
				now := c.s.now()
				op := &burst.ops[i]
				c.s.met.recordLatency(uint8(op.Kind), proto.StatusBusy, time.Duration(now-burst.arr[i]))
				if op.Span != 0 && c.s.tr != nil {
					c.s.tr.Emit(stBusy, uint16(op.Kind), op.Span, uint64(attempts), now, trace.Instant)
				}
				c.sendStatus(burst.ids[i], proto.StatusBusy, "")
				i++
				break
			}
			n /= 2
		}
	}
	releaseBurst(burst)
	return nil
}

func releaseBurst(b *burstState) {
	b.ids = b.ids[:0]
	clear(b.ops) // drop value references
	b.ops = b.ops[:0]
	b.arr = b.arr[:0]
	burstPool.Put(b)
}

// dispatch claims a dispatcher slot — blocking the reader when all are
// busy, which pushes backpressure into the TCP window — and hands the
// committed batch to a goroutine that streams its responses. cleanup,
// if set, runs after the batch is released.
func (c *srvConn) dispatch(b *patree.Batch, ids []uint64, ops []patree.BatchOp, arr []int64, admitted int64, attempts int, cleanup func()) {
	c.sem <- struct{}{}
	c.wg.Add(1)
	go c.dispatchBurst(b, ids, ops, arr, admitted, attempts, cleanup)
}

// dispatchBurst waits for each operation of an admitted burst in
// staging order and streams its responses. Waiting in order is cheap —
// the batch completes as a group — while responses across concurrently
// dispatched bursts interleave freely (out-of-order completion, keyed
// by request id).
func (c *srvConn) dispatchBurst(b *patree.Batch, ids []uint64, ops []patree.BatchOp, arr []int64, admitted int64, attempts int, cleanup func()) {
	defer func() {
		b.Release() // waits for any completions not yet consumed
		if cleanup != nil {
			cleanup()
		}
		<-c.sem
		c.wg.Done()
	}()
	// All of a burst's response frames ride in one buffer: one channel
	// hand-off and (usually) one writer syscall per burst instead of per
	// operation — the response-side mirror of burst admission.
	buf := respBufPool.Get().([]byte)[:0]
	for i, id := range ids {
		var t0 int64
		kind, span := uint8(ops[i].Kind), ops[i].Span
		if span != 0 && c.s.tr != nil {
			t0 = c.s.now()
		}
		status := proto.StatusOf(b.Err(i))
		buf = appendResponse(buf, b, i, id, ops[i].Kind)
		done := c.s.now()
		d := time.Duration(done - arr[i])
		c.s.met.recordOp(kind, status, d)
		if span != 0 && c.s.tr != nil {
			c.s.tr.Emit(stRespond, uint16(kind), span, id, t0, done-t0)
		}
		if slow := c.s.opts.SlowOp; slow > 0 && d > slow {
			// arr[i]..flushed is folded into the admit stage here: the
			// flush timestamp lives with the burst, and admitted-arr[i]
			// is the full pre-engine wait either way.
			c.s.slowOp(id, span, kind, status, attempts, arr[i], arr[i], admitted, done)
		}
		if len(buf) >= 32<<10 {
			if !c.send(buf) {
				// Connection gone: stop encoding, but fall through to
				// Release, which waits out the remaining completions so no
				// handle or op leaks.
				return
			}
			buf = respBufPool.Get().([]byte)[:0]
		}
	}
	if len(buf) > 0 {
		c.send(buf)
	} else {
		respBufPool.Put(buf[:0]) //nolint:staticcheck
	}
}

// result reads operation i's outcome off an admitted batch.
func result(b *patree.Batch, i int) patree.Result {
	return patree.Result{Err: b.Err(i), Found: b.Found(i), Value: b.Value(i), Pairs: b.Pairs(i)}
}

// appendResponse appends the response frame of operation i, already
// waited for. Kept out of line: with the result in dispatchBurst's frame,
// each fresh dispatcher goroutine outgrew its initial stack.
//
//go:noinline
func appendResponse(buf []byte, b *patree.Batch, i int, id uint64, kind patree.OpKind) []byte {
	return proto.AppendResponse(buf, id, kind, result(b, i))
}

// handleWireBatch decodes and admits one wire batch frame as a single
// patree.Batch TryCommit — the protocol's atomic unit. A frame-level
// span covers every sub-op: the batch is one request to the client.
func (c *srvConn) handleWireBatch(id, span uint64, p []byte, arrival int64) {
	ops, err := proto.DecodeBatch(p, nil)
	if err != nil {
		c.s.badFrames.Add(1)
		c.sendStatus(id, proto.StatusBadRequest, err.Error())
		return
	}
	b := c.s.store.NewBatch()
	for _, op := range ops {
		op.Span = span
		b.Stage(op)
	}
	if err := b.TryCommit(); err != nil {
		status := proto.StatusOf(err)
		if status == proto.StatusBusy {
			c.s.busy.Add(1)
			c.s.met.recordLatency(proto.KindBatch, status, time.Duration(c.s.now()-arrival))
			if span != 0 && c.s.tr != nil {
				c.s.tr.Emit(stBusy, uint16(proto.KindBatch), span, 1, c.s.now(), trace.Instant)
			}
		}
		b.Release()
		c.sendStatus(id, status, "")
		return
	}
	admitted := c.s.now()
	if span != 0 && c.s.tr != nil {
		c.s.tr.Emit(stAdmit, uint16(proto.KindBatch), span, 1, arrival, admitted-arrival)
	}
	c.s.wireBatches.Add(1)
	c.s.batchOps.Add(uint64(len(ops)))
	c.sem <- struct{}{}
	c.wg.Add(1)
	go c.dispatchWireBatch(b, id, span, ops, arrival, admitted)
}

// dispatchWireBatch waits out an admitted wire batch and sends its one
// aggregated response: per-op status, flags and payload.
func (c *srvConn) dispatchWireBatch(b *patree.Batch, id, span uint64, ops []patree.BatchOp, arrival, admitted int64) {
	defer func() {
		b.Release()
		<-c.sem
		c.wg.Done()
	}()
	buf := respBufPool.Get().([]byte)[:0]
	t0 := c.s.now()
	b.Wait() // park on this shallow frame, not under the encoder (see appendResponse)
	buf = proto.AppendBatchResponse(buf, id, ops, func(i int) patree.Result { return result(b, i) })
	done := c.s.now()
	d := time.Duration(done - arrival)
	c.s.met.recordOp(proto.KindBatch, proto.StatusOK, d)
	if span != 0 && c.s.tr != nil {
		c.s.tr.Emit(stRespond, uint16(proto.KindBatch), span, id, t0, done-t0)
	}
	if slow := c.s.opts.SlowOp; slow > 0 && d > slow {
		c.s.slowOp(id, span, proto.KindBatch, proto.StatusOK, 1, arrival, arrival, admitted, done)
	}
	c.send(buf)
}

// sendStatus enqueues a bare status response (and counts it).
func (c *srvConn) sendStatus(id uint64, status uint8, msg string) {
	c.s.met.recordStatus(status)
	buf := respBufPool.Get().([]byte)[:0]
	buf = proto.AppendFrame(buf, id, status, []byte(msg))
	c.send(buf)
}

// send enqueues one encoded response frame for the writer, reporting
// false when the connection died instead of blocking forever.
func (c *srvConn) send(buf []byte) bool {
	select {
	case c.resp <- buf:
		return true
	case <-c.dead:
		respBufPool.Put(buf[:0]) //nolint:staticcheck // slice header reuse is intended
		return false
	}
}

// writeLoop streams response frames, coalescing every frame available
// before each flush.
func (c *srvConn) writeLoop() {
	defer c.wg.Done()
	bw := bufio.NewWriterSize(c.c, bufSize)
	for {
		select {
		case buf := <-c.resp:
			for {
				_, err := bw.Write(buf)
				c.s.bytesOut.Add(uint64(len(buf)))
				respBufPool.Put(buf[:0]) //nolint:staticcheck
				if err != nil {
					c.shut()
					return
				}
				select {
				case buf = <-c.resp:
					continue
				default:
				}
				break
			}
			if err := bw.Flush(); err != nil {
				c.shut()
				return
			}
		case <-c.dead:
			return
		}
	}
}
