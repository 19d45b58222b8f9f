// Package server is the PA-Tree network serving tier: it speaks the
// internal/proto framing over any net.Listener and feeds every
// connection's operations straight into a patree.Store's admission
// pipeline.
//
// The design extends the paper's polled-mode admission path across the
// network boundary:
//
//   - Each connection's reader goroutine decodes pipelined request
//     frames, single ops and wire batches alike, into one burst and
//     stages the burst on a patree.Batch: one admission-ring
//     transaction per network read burst, so a burst of N pipelined
//     requests costs one ring hand-off, exactly like an embedded
//     caller using the batch API. A request's ops are admitted in
//     arrival order, behind those of the requests before it.
//   - Admission blocks as embedded admission does (Batch.Commit): when
//     a shard's MPSC ring is full the reader waits for room, and TCP's
//     window pushes back on the client. Only a try batch is admitted
//     with Batch.TryCommit, at its place in the order; a full ring
//     refuses it whole with StatusBusy, the wire form of
//     patree.ErrBacklog, and no other request is ever refused for room.
//   - A bounded pool of completion dispatchers waits on the admitted
//     batches' handles and streams responses back through a writer
//     goroutine that coalesces frames per flush. Responses complete
//     out of order across bursts, keyed by request id.
//
// The server programs only against patree.Store, so it can front an
// embedded *DB or, in principle, another remote store.
package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"slices"
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
	// BurstOps caps how many pipelined ops are staged before the burst
	// is admitted (default 256); a wire batch joins a burst whole. A
	// burst larger than the store's admission ring admits in pieces, so
	// the cap need not fit the ring.
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
	Busy        uint64 `metric:"patree_server_busy_total counter sum" help:"Try batches refused with StatusBusy (ring full, nothing admitted)."`
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
// connection goroutines to drain, a reader waiting in Commit once that
// returns. Operations already admitted to the store complete there;
// their responses are dropped with the connections. The store itself is
// not closed — it belongs to the caller.
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

// burstState accumulates one read burst of pipelined requests in
// neutral form. Ops are kept decoded (not staged on a Batch) until flush,
// where a try batch splits the burst into separate admissions.
type burstState struct {
	reqs []request
	ops  []patree.BatchOp // every request's ops in arrival order; Span is the request's trace span (0 = unsampled)
}

// request is one request frame of a burst: a single op or a wire batch,
// whose ops are ops[lo:hi] of its burst.
type request struct {
	id      uint64
	span    uint64
	arrival int64 // server clock, for wire latency
	lo, hi  int
	kind    uint8 // bare wire kind: the op's, or proto.KindBatch
	try     bool  // a batch the client committed with TryCommit
}

var burstPool = sync.Pool{New: func() any { return new(burstState) }}

// add decodes request r's payload onto the burst. A malformed request
// leaves the burst as it was.
func (bs *burstState) add(r request, payload []byte) error {
	r.lo = len(bs.ops)
	var err error
	if r.kind == proto.KindBatch {
		bs.ops, r.try, err = proto.DecodeBatch(payload, bs.ops)
	} else {
		var op patree.BatchOp
		op, err = proto.DecodeRequest(r.kind, payload)
		bs.ops = append(bs.ops, op)
	}
	if err != nil {
		clear(bs.ops[r.lo:])
		bs.ops = bs.ops[:r.lo]
		return err
	}
	r.hi = len(bs.ops)
	for i := r.lo; i < r.hi; i++ {
		bs.ops[i].Span = r.span
	}
	bs.reqs = append(bs.reqs, r)
	return nil
}

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
			if burst != nil && len(burst.reqs) > 0 {
				c.flushBurst(burst)
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.s.logf("patree/server: %s: read: %v", c.c.RemoteAddr(), err)
			}
			return
		}
		c.s.bytesIn.Add(uint64(4 + len(body)))
		rbuf = body[:0]
		r := request{id: proto.FrameID(body)}
		kind, span, payload, ok := proto.SplitSpan(proto.FrameKind(body), proto.FrameBody(body))
		switch {
		case !ok:
			c.badRequest(r.id, "short span prefix")
		case kind == proto.KindHello:
			c.handleHello(r.id, payload)
		default:
			r.kind, r.span, r.arrival = kind, span, c.s.now()
			if span != 0 && c.s.tr != nil {
				c.s.tr.Emit(stRecv, uint16(kind), span, r.id, r.arrival, trace.Instant)
			}
			if burst == nil {
				burst = burstPool.Get().(*burstState)
			}
			if err := burst.add(r, payload); err != nil {
				c.badRequest(r.id, err.Error())
			}
		}
		// Admit when the burst is full or the next complete frame is not
		// already buffered — blocking on the socket with staged-but-
		// unadmitted work would stall the pipeline.
		if burst != nil && len(burst.reqs) > 0 && (len(burst.ops) >= c.s.opts.BurstOps || !c.frameBuffered()) {
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

// badRequest answers a malformed request, which admits nothing.
func (c *srvConn) badRequest(id uint64, msg string) {
	c.s.badFrames.Add(1)
	c.sendStatus(id, proto.StatusBadRequest, msg)
}

// handleHello answers the protocol handshake: the offered (version,
// flags) clamped to what this build speaks, with the trace flag only
// granted when the server itself records spans.
func (c *srvConn) handleHello(id uint64, p []byte) {
	v, f, err := proto.ParseHello(p)
	if err != nil {
		c.badRequest(id, "malformed hello")
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

// flushBurst admits the burst in arrival order. Each maximal run of
// non-try requests is staged on one Batch and admitted with the blocking
// Commit, which admits per shard in ring-sized pieces while this reader
// waits, so TCP's window pushes back on the client. Each try batch keeps
// its own TryCommit at its place in the order, and is the only request a
// full ring refuses (StatusBusy, nothing admitted). Any other admission
// error maps through the taxonomy and refuses the rest of the burst.
// Always returns nil, for `burst = c.flushBurst(burst)` call sites.
func (c *srvConn) flushBurst(burst *burstState) *burstState {
	flushed := c.s.now()
	c.s.met.recordBurst(len(burst.ops))
	reqs := burst.reqs
	for i := 0; i < len(reqs); {
		try, n := reqs[i].try, 1
		for !try && i+n < len(reqs) && !reqs[i+n].try {
			n++
		}
		part := reqs[i : i+n]
		lo, hi := part[0].lo, part[n-1].hi
		b := c.s.store.NewBatch()
		for _, op := range burst.ops[lo:hi] {
			b.Stage(op)
		}
		var err error
		if try {
			err = b.TryCommit()
		} else {
			err = b.Commit()
		}
		switch status := proto.StatusOf(err); {
		case err == nil:
			admitted := c.admitted(part, hi-lo, flushed)
			if n == len(reqs) {
				// Common case: the whole burst in one admission; the
				// dispatcher takes ownership of the state's slices.
				c.dispatch(b, reqs, burst.ops, flushed, admitted, func() { releaseBurst(burst) })
				return nil
			}
			// Split admission: copy the part's requests and ops, the state
			// is reused for the rest of the loop.
			c.dispatch(b, slices.Clone(part), slices.Clone(burst.ops[lo:hi]), flushed, admitted, nil)
		case status == proto.StatusBusy:
			b.Release()
			c.s.busy.Add(1)
			now, r := c.s.now(), &part[0]
			c.s.met.recordLatency(r.kind, status, time.Duration(now-r.arrival))
			if r.span != 0 && c.s.tr != nil {
				c.s.tr.Emit(stBusy, uint16(r.kind), r.span, r.id, now, trace.Instant)
			}
			c.sendStatus(r.id, status, "")
		default:
			// Terminal (closed, device failed): refuse everything left.
			b.Release()
			for _, r := range reqs[i:] {
				c.sendStatus(r.id, status, "")
			}
			releaseBurst(burst)
			return nil
		}
		i += n
	}
	releaseBurst(burst)
	return nil
}

// admitted counts the requests of an admitted part of a burst, ops in
// all, traces the sampled ones and returns the admission time.
func (c *srvConn) admitted(part []request, ops int, flushed int64) int64 {
	admitted, batched := c.s.now(), 0
	for _, r := range part {
		if r.kind == proto.KindBatch {
			c.s.wireBatches.Add(1)
			batched += r.hi - r.lo
		}
		if r.span != 0 && c.s.tr != nil {
			c.s.tr.Emit(stAdmit, uint16(r.kind), r.span, r.id, flushed, admitted-flushed)
		}
	}
	c.s.ops.Add(uint64(ops - batched))
	c.s.batchOps.Add(uint64(batched))
	return admitted
}

func releaseBurst(b *burstState) {
	b.reqs = b.reqs[:0]
	clear(b.ops) // drop value references
	b.ops = b.ops[:0]
	burstPool.Put(b)
}

// dispatch claims a dispatcher slot — blocking the reader when all are
// busy, which pushes backpressure into the TCP window — and hands the
// committed batch to a goroutine that streams its responses. cleanup,
// if set, runs after the batch is released.
func (c *srvConn) dispatch(b *patree.Batch, reqs []request, ops []patree.BatchOp, flushed, admitted int64, cleanup func()) {
	c.sem <- struct{}{}
	c.wg.Add(1)
	go c.dispatchBurst(b, reqs, ops, flushed, admitted, cleanup)
}

// dispatchBurst waits for each request of an admitted burst in staging
// order and streams its responses: AppendResponse for a single op,
// AppendBatchResponse for a wire batch. ops are the ops staged on b,
// the first of them reqs[0]'s. Waiting in order is cheap — the batch
// completes as a group — while responses across concurrently dispatched
// bursts interleave freely (out-of-order completion, keyed by request
// id).
func (c *srvConn) dispatchBurst(b *patree.Batch, reqs []request, ops []patree.BatchOp, flushed, admitted int64, cleanup func()) {
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
	// request — the response-side mirror of burst admission.
	base := reqs[0].lo
	buf := respBufPool.Get().([]byte)[:0]
	for i := range reqs {
		r := &reqs[i]
		var t0 int64
		if r.span != 0 && c.s.tr != nil {
			t0 = c.s.now()
		}
		at := len(buf)
		buf = appendResponse(buf, b, r, ops, base)
		status := proto.FrameKind(buf[at+4:])
		done := c.s.now()
		d := time.Duration(done - r.arrival)
		c.s.met.recordOp(r.kind, status, d)
		if r.span != 0 && c.s.tr != nil {
			c.s.tr.Emit(stRespond, uint16(r.kind), r.span, r.id, t0, done-t0)
		}
		if slow := c.s.opts.SlowOp; slow > 0 && d > slow {
			c.s.slowOp(r.id, r.span, r.kind, status, r.arrival, flushed, admitted, done)
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

// appendResponse appends request r's response frame, waiting for its
// ops; base is the batch index of ops[0]. Kept out of line: with the
// results in dispatchBurst's frame, each fresh dispatcher goroutine
// outgrew its initial stack.
//
//go:noinline
func appendResponse(buf []byte, b *patree.Batch, r *request, ops []patree.BatchOp, base int) []byte {
	lo := r.lo - base
	if r.kind != proto.KindBatch {
		return proto.AppendResponse(buf, r.id, ops[lo].Kind, result(b, lo))
	}
	return proto.AppendBatchResponse(buf, r.id, ops[lo:r.hi-base], func(i int) patree.Result { return result(b, lo+i) })
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
