// Package client is the network client for the PA-Tree serving tier
// (internal/server): a pipelined, connection-pooled implementation of
// patree.Store over the internal/proto wire protocol, so code written
// against the Store interface runs unchanged whether the tree is
// embedded in-process or behind a server.
//
// A Conn multiplexes any number of goroutines over one TCP connection:
// requests are pipelined, responses complete out of order keyed by
// request id, and every operation returns the same pooled
// patree.Handle future an embedded caller would get. A Pool stripes
// operations over several Conns.
//
// Flow control: when the server's admission pipeline is full it
// answers StatusBusy — the wire form of patree.ErrBacklog — without
// admitting anything. The Conn backs off (exponential, jittered) and
// retransmits the identical frame under the same request id, so
// blocking and Async calls simply absorb the delay, exactly like an
// embedded caller blocking on a full admission ring. Batch.TryCommit
// is the exception: BUSY surfaces as ErrBacklog and the batch stays
// staged, matching the embedded contract.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/internal/proto"
	"github.com/patree/patree/internal/trace"
)

// The connection's fixed parameters.
const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 5 * time.Second
	// backoffBase and backoffMax bound the jittered exponential backoff
	// between BUSY retransmits.
	backoffBase = 100 * time.Microsecond
	backoffMax  = 10 * time.Millisecond
	// bufSize sizes the buffered reader and writer.
	bufSize = 64 << 10
	// sendQueue bounds requests queued for the writer.
	sendQueue = 1024
)

// Options tunes a Conn's tracing. The zero value traces nothing.
type Options struct {
	// Trace enables client-side span tracing: the connection offers the
	// protocol handshake at dial and, once the server negotiates trace
	// propagation, samples requests into spans whose ids travel on the
	// wire (see internal/proto). Off by default; when off the connection
	// never sends a hello and behaves exactly like a v0 client.
	Trace bool
	// SampleEvery samples 1 of every N requests when tracing (default
	// 64; 1 traces every request).
	SampleEvery int
	// TraceNow overrides the trace clock (nanoseconds). Point it at the
	// server engine's clock (patree.DB.TraceNow) in loopback benches so
	// the merged export shares one time axis; nil uses a process-local
	// monotonic clock.
	TraceNow func() int64
}

func (o *Options) fill() {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 64
	}
	if o.TraceNow == nil {
		o.TraceNow = defaultTraceNow
	}
}

// Stats counts a connection's wire activity. The tags declare how a
// Pool folds its connections' counts; nothing exposes them as series.
type Stats struct {
	Sent        uint64 `metric:"- counter sum"` // request frames written (including retransmits)
	Received    uint64 `metric:"- counter sum"` // response frames read
	BusyRetries uint64 `metric:"- counter sum"` // BUSY responses absorbed by backoff + retransmit
}

// pending is one in-flight request: its encoded frame (retained for
// BUSY retransmission) and how to deliver its outcome. Only the reader
// goroutine resolves or removes a registered pending, which is what
// makes delivery exactly-once.
type pending struct {
	id       uint64
	kind     uint8 // bare wire kind; proto.KindBatch for batches
	frame    []byte
	attempts int
	span     uint64 // trace span id (0 = unsampled)
	issuedAt int64  // trace clock at issue; valid when span != 0

	resolve func(patree.Result) // single op

	batchResolve []func(patree.Result) // wire batch
	batchKinds   []patree.OpKind
	try          bool
	ack          chan error // try-batch admission outcome
}

// Conn is one pipelined protocol connection. It is safe for concurrent
// use by any number of goroutines and implements patree.Store.
type Conn struct {
	c    net.Conn
	opts Options

	nextID atomic.Uint64
	sendQ  chan *pending
	dead   chan struct{}
	shutOn sync.Once
	user   atomic.Bool // Close() called locally

	pmu      sync.Mutex
	pend     map[uint64]*pending
	terminal error // set once the connection failed; guarded by pmu

	wg sync.WaitGroup

	sent     atomic.Uint64
	received atomic.Uint64
	busy     atomic.Uint64

	// tracing (nil/false when Options.Trace is off)
	tr      *trace.Locked
	traceOK atomic.Bool // server negotiated HelloFlagTrace
	sampleN atomic.Uint64
}

// Conn is a Store: embedded and remote callers are interchangeable.
var _ patree.Store = (*Conn)(nil)

// Dial connects to a PA-Tree server.
func Dial(addr string, opts Options) (*Conn, error) {
	opts.fill()
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Conn{
		c:     nc,
		opts:  opts,
		sendQ: make(chan *pending, sendQueue),
		dead:  make(chan struct{}),
		pend:  make(map[uint64]*pending),
	}
	if opts.Trace {
		c.tr = trace.NewLocked(trace.RingEvents, clientCodeNames, proto.KindNames[:], opts.TraceNow)
		// Offer the handshake as the connection's first frame, pipelined —
		// never blocking the dial. A v0 server answers StatusBadRequest,
		// which finishHello treats as "version 0": the connection simply
		// keeps sending plain frames and no request is ever sampled.
		hello := &pending{
			id:      c.nextID.Add(1),
			kind:    proto.KindHello,
			resolve: func(patree.Result) {}, // fail() may resolve it; nothing to do
		}
		hello.frame = proto.AppendHello(nil, hello.id, proto.KindHello, proto.Version, proto.HelloFlagTrace)
		c.pend[hello.id] = hello
		c.sendQ <- hello
	}
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// shut closes the socket and the dead channel, unblocking both loops.
func (c *Conn) shut() {
	c.shutOn.Do(func() {
		close(c.dead)
		c.c.Close()
	})
}

// Close tears the connection down. In-flight operations resolve with
// ErrClosed; subsequent calls fail with ErrClosed immediately.
func (c *Conn) Close() error {
	c.user.Store(true)
	c.shut()
	c.wg.Wait()
	return nil
}

// Stats snapshots the connection's wire counters.
func (c *Conn) Stats() Stats {
	return Stats{Sent: c.sent.Load(), Received: c.received.Load(), BusyRetries: c.busy.Load()}
}

// register files p under its id, or reports the terminal error if the
// connection already failed (nothing is filed then).
func (c *Conn) register(p *pending) error {
	c.pmu.Lock()
	if c.terminal != nil {
		err := c.terminal
		c.pmu.Unlock()
		return err
	}
	c.pend[p.id] = p
	c.pmu.Unlock()
	return nil
}

// enqueue hands p to the writer. If the connection dies first the
// registered entry is resolved by fail(), so a false return only means
// "the failure path owns delivery now".
func (c *Conn) enqueue(p *pending) {
	select {
	case c.sendQ <- p:
	case <-c.dead:
	}
}

// retransmit re-enqueues the pending registered under id, if it still
// is. Only BUSY-refused requests are retransmitted, and the server
// admitted nothing for them, so the resend can never double-apply.
func (c *Conn) retransmit(id uint64) {
	c.pmu.Lock()
	p := c.pend[id]
	c.pmu.Unlock()
	if p != nil {
		if p.span != 0 {
			c.tr.Emit(ctRetransmit, uint16(p.kind), p.span, uint64(p.attempts), c.tr.NowNanos(), trace.Instant)
		}
		c.enqueue(p)
	}
}

// backoff returns the jittered exponential delay before retransmit
// attempt n, always within [backoffBase, backoffMax].
func backoff(n int) time.Duration {
	d := backoffMax
	if n < 32 && backoffBase<<n < backoffMax {
		d = backoffBase << n
	}
	// Full jitter: desynchronizes the retry storms of many clients
	// hammering one saturated server.
	return backoffBase + time.Duration(rand.Int63n(int64(d-backoffBase)+1))
}

// fail resolves every in-flight operation with the terminal error and
// refuses all future ones. Called exactly once, by the reader on exit.
func (c *Conn) fail(cause error) {
	c.shut()
	term := error(patree.ErrClosed)
	if !c.user.Load() {
		term = fmt.Errorf("%w: connection lost: %v", patree.ErrBatchAborted, cause)
	}
	c.pmu.Lock()
	c.terminal = term
	m := c.pend
	c.pend = make(map[uint64]*pending)
	c.pmu.Unlock()
	for _, p := range m {
		switch {
		case p.ack != nil:
			// A try-batch that never got its admission answer: report the
			// error to CommitStaged; the handles stay staged/pending and
			// Batch.Release reclaims them.
			p.ack <- term
		case p.batchResolve != nil:
			for _, r := range p.batchResolve {
				r(patree.Result{Err: term})
			}
		default:
			p.resolve(patree.Result{Err: term})
		}
	}
}

// writeLoop streams request frames, coalescing everything queued before
// each flush.
func (c *Conn) writeLoop() {
	defer c.wg.Done()
	bw := bufio.NewWriterSize(c.c, bufSize)
	for {
		select {
		case p := <-c.sendQ:
			for {
				_, err := bw.Write(p.frame)
				if err != nil {
					c.shut()
					return
				}
				c.sent.Add(1)
				if p.span != 0 {
					c.tr.Emit(ctWrite, uint16(p.kind), p.span, uint64(len(p.frame)), c.tr.NowNanos(), trace.Instant)
				}
				select {
				case p = <-c.sendQ:
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

// readLoop decodes responses and delivers them; it owns all resolution
// of registered pendings.
func (c *Conn) readLoop() {
	defer c.wg.Done()
	br := bufio.NewReaderSize(c.c, bufSize)
	var rbuf []byte
	for {
		body, err := proto.ReadFrame(br, rbuf)
		if err != nil {
			if c.user.Load() || err == io.EOF || errors.Is(err, net.ErrClosed) {
				c.fail(io.EOF)
			} else {
				c.fail(err)
			}
			return
		}
		rbuf = body[:0]
		c.received.Add(1)
		id := proto.FrameID(body)
		status := proto.FrameKind(body)
		payload := proto.FrameBody(body)

		c.pmu.Lock()
		p := c.pend[id]
		if p != nil && status == proto.StatusBusy && !p.try {
			// Flow control: leave the entry registered and retransmit the
			// identical frame after a backoff. Nothing was admitted.
			p.attempts++
			c.pmu.Unlock()
			c.busy.Add(1)
			d := backoff(p.attempts)
			if p.span != 0 {
				c.tr.Emit(ctBackoff, uint16(p.kind), p.span, uint64(p.attempts), c.tr.NowNanos(), int64(d))
			}
			time.AfterFunc(d, func() { c.retransmit(id) })
			continue
		}
		if p != nil {
			delete(c.pend, id)
		}
		c.pmu.Unlock()
		if p == nil {
			// Response for an entry the failure path already resolved, or
			// a duplicate: ignore.
			continue
		}
		if p.kind == proto.KindHello {
			c.finishHello(status, payload)
			continue
		}
		if p.span == 0 {
			c.deliver(p, status, payload)
			continue
		}
		t0 := c.tr.NowNanos()
		c.deliver(p, status, payload)
		t1 := c.tr.NowNanos()
		c.tr.Emit(ctDecode, uint16(p.kind), p.span, 0, t0, t1-t0)
		// The span anchor: one "request" slice covering the whole
		// client-observed lifetime, Seq = span id for the stitcher.
		c.tr.Emit(ctRequest, uint16(p.kind), p.span, uint64(p.attempts), p.issuedAt, t1-p.issuedAt)
	}
}

// finishHello resolves the handshake: StatusOK carries the negotiated
// (version, flags); anything else — most importantly a v0 server's
// StatusBadRequest for the unknown kind — leaves the connection at
// version 0 with tracing off. Never an error either way.
func (c *Conn) finishHello(status uint8, payload []byte) {
	if status != proto.StatusOK {
		return
	}
	v, f, err := proto.ParseHello(payload)
	if err != nil {
		return
	}
	if v >= 1 && f&proto.HelloFlagTrace != 0 {
		c.traceOK.Store(true)
	}
}

// deliver decodes a final response and resolves its pending.
func (c *Conn) deliver(p *pending, status uint8, payload []byte) {
	if p.kind == proto.KindBatch {
		c.deliverBatch(p, status, payload)
		return
	}
	p.resolve(proto.DecodeResponse(patree.OpKind(p.kind), status, payload))
}

// deliverBatch decodes a wire batch response: admission refusal for a
// try-batch (BUSY is ErrBacklog), or the per-op results.
func (c *Conn) deliverBatch(p *pending, status uint8, payload []byte) {
	var results []patree.Result
	var err error
	if status == proto.StatusOK {
		results, err = proto.DecodeBatchResponse(payload, p.batchKinds)
	} else if err = proto.ErrFromStatus(status, string(payload)); p.ack != nil {
		p.ack <- err
		return
	}
	if p.ack != nil {
		// Admitted, even when the results are undecodable: the caller
		// cannot retry the batch as staged, so the handles carry the error.
		p.ack <- nil
	}
	for i, r := range p.batchResolve {
		if err != nil {
			r(patree.Result{Err: err})
		} else {
			r(results[i])
		}
	}
}

// issue registers, encodes and sends one single-op request, returning
// its future.
func (c *Conn) issue(op patree.BatchOp) (*patree.Handle, error) {
	h, resolve := patree.NewRemoteHandle()
	p := &pending{id: c.nextID.Add(1), kind: uint8(op.Kind), resolve: resolve, span: c.sample()}
	p.frame = proto.AppendRequest(nil, p.id, p.span, op)
	if p.span != 0 {
		p.issuedAt = c.tr.NowNanos()
	}
	if err := c.register(p); err != nil {
		// Never admitted: reclaim the handle like a refused embedded
		// admission would.
		resolve(patree.Result{Err: err})
		h.Release()
		return nil, err
	}
	c.enqueue(p)
	if p.span != 0 {
		c.tr.Emit(ctEnqueue, uint16(p.kind), p.span, 0, c.tr.NowNanos(), trace.Instant)
	}
	return h, nil
}

// PutAsync admits an insert-or-replace and returns its future.
func (c *Conn) PutAsync(key uint64, value []byte) (*patree.Handle, error) {
	return c.issue(patree.BatchOp{Kind: patree.OpPut, Key: key, Value: value})
}

// GetAsync admits a point lookup and returns its future.
func (c *Conn) GetAsync(key uint64) (*patree.Handle, error) {
	return c.issue(patree.BatchOp{Kind: patree.OpGet, Key: key})
}

// UpdateAsync admits a replace-if-present and returns its future.
func (c *Conn) UpdateAsync(key uint64, value []byte) (*patree.Handle, error) {
	return c.issue(patree.BatchOp{Kind: patree.OpUpdate, Key: key, Value: value})
}

// DeleteAsync admits a delete and returns its future.
func (c *Conn) DeleteAsync(key uint64) (*patree.Handle, error) {
	return c.issue(patree.BatchOp{Kind: patree.OpDelete, Key: key})
}

// ScanAsync admits a range scan and returns its future.
func (c *Conn) ScanAsync(lo, hi uint64, limit int) (*patree.Handle, error) {
	return c.issue(patree.BatchOp{Kind: patree.OpScan, Key: lo, End: hi, Limit: limit})
}

// SyncAsync admits a sync and returns its future.
func (c *Conn) SyncAsync() (*patree.Handle, error) {
	return c.issue(patree.BatchOp{Kind: patree.OpSync})
}

// Put inserts or replaces key.
func (c *Conn) Put(key uint64, value []byte) error {
	h, err := c.PutAsync(key, value)
	if err != nil {
		return err
	}
	err = h.Err()
	h.Release()
	return err
}

// Get returns the value stored under key.
func (c *Conn) Get(key uint64) ([]byte, bool, error) {
	h, err := c.GetAsync(key)
	if err != nil {
		return nil, false, err
	}
	v, found, err := h.Value(), h.Found(), h.Err()
	h.Release()
	return v, found, err
}

// Update replaces key only if present, reporting whether it was.
func (c *Conn) Update(key uint64, value []byte) (bool, error) {
	h, err := c.UpdateAsync(key, value)
	if err != nil {
		return false, err
	}
	found, werr := h.Found(), h.Err()
	h.Release()
	return found, werr
}

// Delete removes key, reporting whether it was present.
func (c *Conn) Delete(key uint64) (bool, error) {
	h, err := c.DeleteAsync(key)
	if err != nil {
		return false, err
	}
	found, werr := h.Found(), h.Err()
	h.Release()
	return found, werr
}

// Scan returns pairs with keys in [lo, hi] ascending, at most limit
// (<= 0 = all).
func (c *Conn) Scan(lo, hi uint64, limit int) ([]patree.KV, error) {
	h, err := c.ScanAsync(lo, hi, limit)
	if err != nil {
		return nil, err
	}
	pairs, werr := h.Pairs(), h.Err()
	h.Release()
	return pairs, werr
}

// Sync makes all acknowledged updates durable on the server.
func (c *Conn) Sync() error {
	h, err := c.SyncAsync()
	if err != nil {
		return err
	}
	err = h.Err()
	h.Release()
	return err
}

// NewBatch returns a batch whose commit travels as one wire frame and
// is admitted server-side as one atomic transaction — cross-shard
// TryCommit all-or-nothing semantics hold end to end.
func (c *Conn) NewBatch() *patree.Batch {
	return patree.NewRemoteBatch(committer{c})
}

// committer adapts a Conn to patree.BatchCommitter without widening the
// Conn API.
type committer struct{ c *Conn }

// CommitStaged encodes the staged batch as one frame. try waits for the
// admission answer (BUSY → ErrBacklog, batch stays staged); non-try
// returns once queued, with BUSY absorbed by backoff + retransmit like
// any other request.
func (cm committer) CommitStaged(ops []patree.BatchOp, resolve []func(patree.Result), try bool) error {
	c := cm.c
	// CommitStaged's slices are only valid until it returns; the
	// response arrives later, so keep a copy.
	res := make([]func(patree.Result), len(resolve))
	copy(res, resolve)
	p := &pending{
		id:           c.nextID.Add(1),
		kind:         proto.KindBatch,
		try:          try,
		batchResolve: res,
		batchKinds:   make([]patree.OpKind, len(ops)),
		span:         c.sample(),
	}
	for i, op := range ops {
		p.batchKinds[i] = op.Kind
	}
	p.frame = proto.AppendBatch(nil, p.id, p.span, try, ops)
	if try {
		p.ack = make(chan error, 1)
	}
	if p.span != 0 {
		p.issuedAt = c.tr.NowNanos()
	}
	if err := c.register(p); err != nil {
		return err
	}
	c.enqueue(p)
	if p.span != 0 {
		c.tr.Emit(ctEnqueue, uint16(proto.KindBatch), p.span, uint64(len(ops)), c.tr.NowNanos(), trace.Instant)
	}
	if try {
		return <-p.ack
	}
	return nil
}
