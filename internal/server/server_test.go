package server_test

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/client"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/proto"
	"github.com/patree/patree/internal/server"
	"github.com/patree/patree/internal/sim"
)

// startServer spins up a DB + server on loopback and returns the
// address plus a shutdown func.
func startServer(t *testing.T, dbOpts patree.Options, srvOpts server.Options) (string, *server.Server, func()) {
	t.Helper()
	db, err := patree.Open(dbOpts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	srv := server.New(db, srvOpts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv, func() {
		srv.Close()
		db.Close()
	}
}

// TestWireOracle drives the full wire path — client, protocol, server,
// sharded DB — with a deterministic mixed workload and checks every
// result against a flat-map oracle.
func TestWireOracle(t *testing.T) {
	addr, _, stop := startServer(t, patree.Options{Shards: 4}, server.Options{})
	defer stop()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	oracle := map[uint64][]byte{}
	rng := sim.NewRNG(7)
	val := func(k uint64) []byte { return []byte(fmt.Sprintf("v%d-%d", k, rng.Uint64n(1000))) }

	const keys = 512
	for i := 0; i < 4000; i++ {
		k := rng.Uint64n(keys) + 1
		switch rng.Intn(6) {
		case 0, 1: // put
			v := val(k)
			if err := c.Put(k, v); err != nil {
				t.Fatalf("op %d: put(%d): %v", i, k, err)
			}
			oracle[k] = v
		case 2: // get
			v, found, err := c.Get(k)
			if err != nil {
				t.Fatalf("op %d: get(%d): %v", i, k, err)
			}
			want, ok := oracle[k]
			if found != ok || (ok && !bytes.Equal(v, want)) {
				t.Fatalf("op %d: get(%d) = %q/%v, want %q/%v", i, k, v, found, want, ok)
			}
		case 3: // update
			v := val(k)
			found, err := c.Update(k, v)
			if err != nil {
				t.Fatalf("op %d: update(%d): %v", i, k, err)
			}
			if _, ok := oracle[k]; found != ok {
				t.Fatalf("op %d: update(%d) found=%v, oracle %v", i, k, found, ok)
			}
			if found {
				oracle[k] = v
			}
		case 4: // delete
			found, err := c.Delete(k)
			if err != nil {
				t.Fatalf("op %d: delete(%d): %v", i, k, err)
			}
			if _, ok := oracle[k]; found != ok {
				t.Fatalf("op %d: delete(%d) found=%v, oracle %v", i, k, found, ok)
			}
			delete(oracle, k)
		case 5: // scan a window
			lo := rng.Uint64n(keys) + 1
			hi := lo + 16
			pairs, err := c.Scan(lo, hi, 0)
			if err != nil {
				t.Fatalf("op %d: scan: %v", i, err)
			}
			want := map[uint64][]byte{}
			for k, v := range oracle {
				if k >= lo && k <= hi {
					want[k] = v
				}
			}
			if len(pairs) != len(want) {
				t.Fatalf("op %d: scan[%d,%d] = %d pairs, want %d", i, lo, hi, len(pairs), len(want))
			}
			var prev uint64
			for j, kv := range pairs {
				if j > 0 && kv.Key <= prev {
					t.Fatalf("op %d: scan out of order", i)
				}
				prev = kv.Key
				if !bytes.Equal(kv.Value, want[kv.Key]) {
					t.Fatalf("op %d: scan key %d = %q, want %q", i, kv.Key, kv.Value, want[kv.Key])
				}
			}
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// TestWireBatchOracle exercises wire batches — the protocol's atomicity
// unit — including Commit and cross-shard TryCommit, against the
// oracle.
func TestWireBatchOracle(t *testing.T) {
	addr, srv, stop := startServer(t, patree.Options{Shards: 4}, server.Options{})
	defer stop()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	oracle := map[uint64][]byte{}
	rng := sim.NewRNG(11)
	scanned := 0 // pairs delivered by batch scans
	for round := 0; round < 200; round++ {
		var ops []patree.BatchOp
		n := rng.Intn(12) + 1
		for j := 0; j < n; j++ {
			// Keys spread over the whole space so batches regularly cross
			// shards.
			op := patree.BatchOp{Key: rng.Uint64n(4096) + 1}
			switch rng.Intn(7) {
			case 0, 1:
				op.Kind, op.Value = patree.OpPut, []byte(fmt.Sprintf("b%d-%d", round, j))
			case 2:
				op.Kind = patree.OpGet
			case 3:
				op.Kind = patree.OpDelete
			case 4:
				op.Kind, op.Value = patree.OpUpdate, []byte(fmt.Sprintf("u%d-%d", round, j))
			case 5:
				// A window covering keys of every shard; limit 0 is unlimited.
				op.Kind, op.End, op.Limit = patree.OpScan, op.Key+rng.Uint64n(512), rng.Intn(8)
			case 6:
				op = patree.BatchOp{Kind: patree.OpSync}
			}
			ops = append(ops, op)
		}
		// A scan scattered over the shards is unordered against the point
		// writes staged beside it, so a write into one of the batch's scan
		// windows reads instead.
		for _, s := range ops {
			for i, op := range ops {
				if s.Kind == patree.OpScan && op.Key >= s.Key && op.Key <= s.End &&
					(op.Kind == patree.OpPut || op.Kind == patree.OpUpdate || op.Kind == patree.OpDelete) {
					ops[i] = patree.BatchOp{Kind: patree.OpGet, Key: op.Key}
				}
			}
		}
		b := c.NewBatch()
		for _, op := range ops {
			b.Stage(op)
		}
		// Alternate blocking Commit and TryCommit; both must hold the
		// all-or-nothing contract (TryCommit may refuse, in which case the
		// batch stays staged and is retried).
		if round%2 == 0 {
			if err := b.Commit(); err != nil {
				t.Fatalf("round %d: commit: %v", round, err)
			}
		} else {
			for {
				err := b.TryCommit()
				if err == nil {
					break
				}
				if !errors.Is(err, patree.ErrBacklog) {
					t.Fatalf("round %d: trycommit: %v", round, err)
				}
			}
		}
		// Check results in staging order against the oracle, applying
		// mutations as the worker would have seen them.
		for i, op := range ops {
			if err := b.Err(i); err != nil {
				t.Fatalf("round %d: op %d: %v", round, i, err)
			}
			_, existed := oracle[op.Key]
			switch op.Kind {
			case patree.OpPut:
				oracle[op.Key] = op.Value
			case patree.OpGet:
				want := oracle[op.Key]
				if b.Found(i) != existed || !bytes.Equal(b.Value(i), want) {
					t.Fatalf("round %d: batch get(%d) = %q/%v, want %q/%v",
						round, op.Key, b.Value(i), b.Found(i), want, existed)
				}
			case patree.OpDelete:
				if b.Found(i) != existed {
					t.Fatalf("round %d: batch delete(%d) found=%v, want %v", round, op.Key, b.Found(i), existed)
				}
				delete(oracle, op.Key)
			case patree.OpUpdate:
				if b.Found(i) != existed {
					t.Fatalf("round %d: batch update(%d) found=%v, want %v", round, op.Key, b.Found(i), existed)
				}
				if existed {
					oracle[op.Key] = op.Value
				}
			case patree.OpScan:
				var want []patree.KV
				for k, v := range oracle {
					if k >= op.Key && k <= op.End {
						want = append(want, patree.KV{Key: k, Value: v})
					}
				}
				slices.SortFunc(want, func(a, b patree.KV) int { return cmp.Compare(a.Key, b.Key) })
				if op.Limit > 0 && len(want) > op.Limit {
					want = want[:op.Limit]
				}
				got := b.Pairs(i)
				scanned += len(got)
				if len(got) != len(want) {
					t.Fatalf("round %d: batch scan[%d,%d] limit %d = %d pairs, want %d",
						round, op.Key, op.End, op.Limit, len(got), len(want))
				}
				for j := range want {
					if got[j].Key != want[j].Key || !bytes.Equal(got[j].Value, want[j].Value) {
						t.Fatalf("round %d: batch scan[%d,%d] pair %d = %d:%q, want %d:%q",
							round, op.Key, op.End, j, got[j].Key, got[j].Value, want[j].Key, want[j].Value)
					}
				}
			}
		}
		b.Release()
	}
	if srv.Stats().WireBatches == 0 {
		t.Fatal("no wire batches admitted — the batch path was not exercised")
	}
	if scanned == 0 {
		t.Fatal("no batch scan delivered a pair — the pairs decode was not exercised")
	}
	// Final sweep: the whole tree must equal the oracle.
	pairs, err := c.Scan(0, ^uint64(0), 0)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if len(pairs) != len(oracle) {
		t.Fatalf("final scan = %d keys, oracle %d", len(pairs), len(oracle))
	}
	for _, kv := range pairs {
		if !bytes.Equal(kv.Value, oracle[kv.Key]) {
			t.Fatalf("final scan key %d = %q, want %q", kv.Key, kv.Value, oracle[kv.Key])
		}
	}
}

// TestWireConcurrent hammers the server from many goroutines over a
// connection pool under -race: each goroutine owns a disjoint key
// stripe so the final state is deterministic per stripe and verifiable
// against a local oracle.
func TestWireConcurrent(t *testing.T) {
	addr, _, stop := startServer(t, patree.Options{Shards: 4}, server.Options{})
	defer stop()
	pool, err := client.DialPool(addr, 3, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pool.Close()

	const goroutines = 8
	const stripe = 1 << 16
	var wg sync.WaitGroup
	oracles := make([]map[uint64][]byte, goroutines)
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(100 + g))
			oracle := map[uint64][]byte{}
			oracles[g] = oracle
			base := uint64(g+1) * stripe
			fail := func(format string, args ...any) {
				select {
				case errCh <- fmt.Errorf(format, args...):
				default:
				}
			}
			for i := 0; i < 600; i++ {
				k := base + rng.Uint64n(128)
				switch rng.Intn(5) {
				case 0, 1:
					v := []byte(fmt.Sprintf("g%d-%d", g, i))
					if err := pool.Put(k, v); err != nil {
						fail("put: %w", err)
						return
					}
					oracle[k] = v
				case 2:
					v, found, err := pool.Get(k)
					if err != nil {
						fail("get: %w", err)
						return
					}
					want, ok := oracle[k]
					if found != ok || (ok && !bytes.Equal(v, want)) {
						fail("get(%d) = %q/%v, want %q/%v", k, v, found, want, ok)
						return
					}
				case 3:
					if _, err := pool.Delete(k); err != nil {
						fail("delete: %w", err)
						return
					}
					delete(oracle, k)
				case 4:
					b := pool.NewBatch()
					v := []byte(fmt.Sprintf("gb%d-%d", g, i))
					b.Put(k, v)
					gi := b.Get(k)
					if err := b.Commit(); err != nil {
						fail("batch: %w", err)
						return
					}
					if err := b.Wait(); err != nil {
						fail("batch wait: %w", err)
						return
					}
					if !bytes.Equal(b.Value(gi), v) {
						fail("batch read-own-write (g=%d i=%d k=%d): found=%v err=%v %q != %q",
							g, i, k, b.Found(gi), b.Err(gi), b.Value(gi), v)
						return
					}
					b.Release()
					oracle[k] = v
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Verify every stripe against its oracle with scans.
	for g := 0; g < goroutines; g++ {
		base := uint64(g+1) * stripe
		pairs, err := pool.Scan(base, base+stripe-1, 0)
		if err != nil {
			t.Fatalf("stripe %d scan: %v", g, err)
		}
		if len(pairs) != len(oracles[g]) {
			t.Fatalf("stripe %d = %d keys, oracle %d", g, len(pairs), len(oracles[g]))
		}
		for _, kv := range pairs {
			if !bytes.Equal(kv.Value, oracles[g][kv.Key]) {
				t.Fatalf("stripe %d key %d = %q, want %q", g, kv.Key, kv.Value, oracles[g][kv.Key])
			}
		}
	}
}

// gatedDevice blocks every Submit on the device it wraps while its gate
// is shut. The working thread issues its commands itself, so while one
// waits at the gate the worker drains nothing from its admission ring,
// and operations pile up for as long as a test wants them to.
type gatedDevice struct {
	nvme.Device
	gate    sync.RWMutex // write-held while shut
	shut    bool         // touched only by the test goroutine
	waiting atomic.Int32 // Submits at the gate
}

// hold shuts the gate; release opens it and may be called again.
func (d *gatedDevice) hold() { d.gate.Lock(); d.shut = true }

func (d *gatedDevice) release() {
	if d.shut {
		d.shut = false
		d.gate.Unlock()
	}
}

func (d *gatedDevice) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	qp, err := d.Device.AllocQueuePair(depth)
	return &gatedQP{QueuePair: qp, dev: d}, err
}

type gatedQP struct {
	nvme.QueuePair
	dev *gatedDevice
}

func (q *gatedQP) Submit(cmd *nvme.Command) error {
	q.dev.waiting.Add(1)
	q.dev.gate.RLock()
	q.dev.waiting.Add(-1)
	q.dev.gate.RUnlock()
	return q.QueuePair.Submit(cmd)
}

// TestFullRingBlocksReader: a full admission ring holds the
// connection's reader instead of refusing. 512 Puts pipelined over an
// 8-slot ring behind a held device wait for room: the server refuses
// none with StatusBusy, the client writes each frame once, every Put is
// acked, and every acknowledged write is there. The ring is held full
// for as long as the test likes: the worker waits at its first device
// command.
func TestFullRingBlocksReader(t *testing.T) {
	gate := &gatedDevice{Device: nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})}
	addr, db, srv, stop := startTracedServer(t,
		patree.Options{Device: gate, InboxDepth: 8},
		// Bursts far larger than the ring: Commit admits them in pieces.
		server.Options{BurstOps: 64},
	)
	defer stop()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// Deferred last so it runs first: a failing test must not leave the
	// worker parked at the gate, or the teardown above waits forever.
	defer gate.release()

	gate.hold()
	const n = 512
	handles := make([]*patree.Handle, n)
	for i := range handles {
		h, err := c.PutAsync(uint64(i+1), []byte{byte(i)})
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		handles[i] = h
	}
	awaitHeld(t, gate)
	gate.release()
	for i, h := range handles {
		if err := h.Err(); err != nil {
			t.Fatalf("put %d failed: %v", i, err)
		}
		h.Release()
	}
	pairs, err := c.Scan(1, n, 0)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(pairs) != n {
		t.Fatalf("scan = %d keys, want %d", len(pairs), n)
	}
	if busy := srv.Stats().Busy; busy != 0 {
		t.Fatalf("server refused %d requests StatusBusy; only a try batch may be", busy)
	}
	if sent := c.Stats().Sent; sent != n+1 {
		t.Fatalf("client wrote %d frames for %d requests", sent, n+1)
	}
	if db.Stats().AdmitWaits == 0 {
		t.Fatal("no admission waited for the ring: the run never filled it")
	}
}

// rawFrame builds a single-op request frame byte-for-byte.
func rawFrame(id uint64, kind uint8, body []byte) []byte {
	return proto.AppendFrame(nil, id, kind, body)
}

// TestConnDropMidBatch severs a connection that has pipelined singles
// and a wire batch in flight and checks the server abandons the work
// cleanly: no goroutine leaks, and the server keeps serving.
func TestConnDropMidBatch(t *testing.T) {
	addr, srv, stop := startServer(t, patree.Options{Shards: 2}, server.Options{})
	defer stop()

	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		var buf []byte
		// A spray of pipelined singles...
		for i := 0; i < 64; i++ {
			key := binary.LittleEndian.AppendUint64(nil, uint64(i+1))
			buf = append(buf, rawFrame(uint64(i+1), proto.KindPut, append(key, 'x'))...)
		}
		// ...and a wire batch (flags=0, 32 puts).
		batch, at := proto.BeginFrame(nil, 1000, proto.KindBatch)
		batch = append(batch, 0)
		batch = binary.LittleEndian.AppendUint32(batch, 32)
		for i := 0; i < 32; i++ {
			batch = append(batch, proto.KindPut)
			batch = binary.LittleEndian.AppendUint64(batch, uint64(1000+i))
			batch = binary.LittleEndian.AppendUint32(batch, 1)
			batch = append(batch, 'y')
		}
		buf = append(buf, proto.FinishFrame(batch, at)...)
		if _, err := nc.Write(buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Sever without reading a single response.
		nc.Close()
	}

	// The dropped connections' dispatchers must drain and exit. Poll
	// rather than sleep: the deadline only bites on failure.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after conn drops: %d -> %d", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The server must still be fully functional.
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial after drops: %v", err)
	}
	defer c.Close()
	if err := c.Put(1, []byte("alive")); err != nil {
		t.Fatalf("put after drops: %v", err)
	}
	v, found, err := c.Get(1)
	if err != nil || !found || string(v) != "alive" {
		t.Fatalf("get after drops = %q/%v/%v", v, found, err)
	}
	// A dropped connection leaves the count when its teardown finishes,
	// which may trail its goroutines' exit; poll for it like them.
	deadline = time.Now().Add(5 * time.Second)
	for a := srv.Stats().Active; a != 1; a = srv.Stats().Active {
		if time.Now().After(deadline) {
			t.Fatalf("active connections = %d, want 1", a)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientCloseResolvesInflight closes the client with operations in
// flight: every handle must resolve (with ErrClosed or success), no
// waiter may block forever, and later calls fail fast with ErrClosed.
func TestClientCloseResolvesInflight(t *testing.T) {
	addr, _, stop := startServer(t, patree.Options{}, server.Options{})
	defer stop()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var handles []*patree.Handle
	for i := 0; i < 256; i++ {
		h, err := c.PutAsync(uint64(i+1), []byte("v"))
		if err != nil {
			break
		}
		handles = append(handles, h)
	}
	c.Close()
	for _, h := range handles {
		// Must return promptly: either the op completed before the close
		// or it was failed with the taxonomy's close error.
		if err := h.Err(); err != nil && !errors.Is(err, patree.ErrClosed) {
			t.Fatalf("in-flight op after Close: %v", err)
		}
		h.Release()
	}
	if err := c.Put(1, []byte("late")); !errors.Is(err, patree.ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, _, err := c.Get(1); !errors.Is(err, patree.ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
}

// TestServerCloseFailsClients stops the server under live clients: all
// in-flight and subsequent client operations must resolve with a
// taxonomy error (never hang), and handles must not leak.
func TestServerCloseFailsClients(t *testing.T) {
	addr, srv, stop := startServer(t, patree.Options{}, server.Options{})
	defer stop()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	var handles []*patree.Handle
	for i := 0; i < 128; i++ {
		h, err := c.PutAsync(uint64(i+1), []byte("v"))
		if err != nil {
			break
		}
		handles = append(handles, h)
	}
	srv.Close()
	for _, h := range handles {
		if err := h.Err(); err != nil &&
			!errors.Is(err, patree.ErrBatchAborted) && !errors.Is(err, patree.ErrClosed) {
			t.Fatalf("in-flight op after server close: %v", err)
		}
		h.Release()
	}
	// The connection is dead now; new ops must fail with the transport
	// sentinel, not hang.
	err = c.Put(999, []byte("x"))
	if err == nil {
		// The write may have been buffered before the reader noticed; the
		// next one must fail.
		err = c.Put(999, []byte("x"))
	}
	if err != nil && !errors.Is(err, patree.ErrBatchAborted) && !errors.Is(err, patree.ErrClosed) {
		t.Fatalf("op after server close = %v, want taxonomy error", err)
	}
}

// TestMalformedFrames sends structurally broken requests and checks the
// server answers BadRequest (or drops the connection for unframeable
// garbage) without harming other connections.
func TestMalformedFrames(t *testing.T) {
	addr, srv, stop := startServer(t, patree.Options{}, server.Options{})
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	var buf []byte
	buf = append(buf, rawFrame(1, proto.KindGet, []byte{1, 2, 3})...)                           // short get
	buf = append(buf, rawFrame(2, proto.KindScan, make([]byte, 7))...)                          // short scan
	buf = append(buf, rawFrame(3, 99, nil)...)                                                  // unknown kind
	buf = append(buf, rawFrame(4, proto.KindBatch, []byte{0, 1, 0, 0, 0})...)                   // batch with truncated sub-op
	buf = append(buf, rawFrame(5, proto.KindGet, binary.LittleEndian.AppendUint64(nil, 42))...) // valid
	// An 18-byte batch frame claiming 2^32-1 sub-ops: the count must be
	// checked against the bytes left before it sizes any allocation.
	buf = append(buf, rawFrame(6, proto.KindBatch, []byte{0, 0xff, 0xff, 0xff, 0xff})...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Collect the six responses.
	statuses := map[uint64]uint8{}
	rd := make([]byte, 0, 256)
	for len(statuses) < 6 {
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		body, err := proto.ReadFrame(nc, rd)
		if err != nil {
			t.Fatalf("read (%d responses in): %v", len(statuses), err)
		}
		rd = body[:0]
		statuses[proto.FrameID(body)] = proto.FrameKind(body)
	}
	runtime.ReadMemStats(&after)
	for _, id := range []uint64{1, 2, 3, 4, 6} {
		if statuses[id] != proto.StatusBadRequest {
			t.Errorf("frame %d: status %d, want BadRequest", id, statuses[id])
		}
	}
	if statuses[5] != proto.StatusOK {
		t.Errorf("valid frame after garbage: status %d, want OK", statuses[5])
	}
	if srv.Stats().BadFrames != 5 {
		t.Errorf("BadFrames = %d, want 5", srv.Stats().BadFrames)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("answering the frames allocated %d bytes, want < 1 MiB", d)
	}
}

var _ io.Reader = (*net.TCPConn)(nil) // keep io imported alongside net

// TestNonTryBatchOutgrowsRing: a non-try wire batch larger than a
// shard's admission ring commits, as the same batch does embedded, and
// every write reads back. A server that admitted wire batches only whole
// refused it with StatusBusy forever, which the deadline bounds.
func TestNonTryBatchOutgrowsRing(t *testing.T) {
	for _, tc := range []struct{ shards, puts int }{{1, 100}, {2, 200}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			addr, srv, stop := startServer(t, patree.Options{Shards: tc.shards, InboxDepth: 64}, server.Options{})
			defer stop()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			b := c.NewBatch()
			for k := 1; k <= tc.puts; k++ {
				b.Put(uint64(k), []byte(fmt.Sprintf("v%d", k)))
			}
			done := make(chan error, 1)
			go func() {
				if err := b.Commit(); err != nil {
					done <- err
					return
				}
				done <- b.Wait()
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("batch of %d puts: %v", tc.puts, err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("batch of %d puts over a 64-slot ring not committed after 20 s (server busy count %d)", tc.puts, srv.Stats().Busy)
			}
			b.Release()
			pairs, err := c.Scan(0, ^uint64(0), 0)
			if err != nil || len(pairs) != tc.puts {
				t.Fatalf("scan after the batch: %d pairs, %v; want %d", len(pairs), err, tc.puts)
			}
			for _, kv := range pairs {
				if want := fmt.Sprintf("v%d", kv.Key); string(kv.Value) != want {
					t.Fatalf("key %d = %q, want %q", kv.Key, kv.Value, want)
				}
			}
			if st := srv.Stats(); st.WireBatches != 1 || st.BatchOps != uint64(tc.puts) {
				t.Fatalf("server admitted %d wire batches of %d ops, want 1 of %d", st.WireBatches, st.BatchOps, tc.puts)
			}
		})
	}
}

// TestPipelinedOrderAcrossBatches pins per-connection order between
// singles and wire batches, which share one admission path: a single
// Put pipelined before a batch Get of the same key is seen by it, and so
// is a batch Put by a single Get pipelined after it.
func TestPipelinedOrderAcrossBatches(t *testing.T) {
	addr, _, stop := startServer(t, patree.Options{Shards: 2}, server.Options{})
	defer stop()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for k := uint64(1); k <= 200; k++ {
		v1, v2 := []byte(fmt.Sprintf("single%d", k)), []byte(fmt.Sprintf("batch%d", k))
		put, err := c.PutAsync(k, v1)
		if err != nil {
			t.Fatal(err)
		}
		b := c.NewBatch()
		gi := b.Get(k)
		b.Put(k+1000, v2)
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		get, err := c.GetAsync(k + 1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := put.Err(); err != nil {
			t.Fatal(err)
		}
		if v, err := b.Value(gi), b.Err(gi); err != nil || !bytes.Equal(v, v1) {
			t.Fatalf("batch get(%d) after a pipelined put = %q, %v; want %q", k, v, err, v1)
		}
		if v, err := get.Value(), get.Err(); err != nil || !bytes.Equal(v, v2) {
			t.Fatalf("get(%d) after a pipelined batch put = %q, %v; want %q", k+1000, v, err, v2)
		}
		put.Release()
		get.Release()
		b.Release()
	}
}

// TestOversizeFrames: a result or a request larger than proto.MaxFrame
// fails alone and the connection survives. The server answers an
// over-limit scan StatusInternal for that request id; the client refuses
// to send an over-limit request and returns an error from the call.
// Either frame on the wire lost the whole connection before.
func TestOversizeFrames(t *testing.T) {
	addr, db, _, stop := startTracedServer(t, patree.Options{}, server.Options{})
	defer stop()
	val := bytes.Repeat([]byte("v"), 200)
	const n = 90000 // 90 000 pairs of 212 bytes encode to over 16 MiB
	for k := 0; k < n; k += 1000 {
		b := db.NewBatch()
		for i := k; i < k+1000; i++ {
			b.Put(uint64(i+1), val)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	alive := func(what string) {
		t.Helper()
		if pairs, err := c.Scan(1, 10, 0); err != nil || len(pairs) != 10 {
			t.Fatalf("scan after %s: %d pairs, %v", what, len(pairs), err)
		}
	}

	if pairs, err := c.Scan(0, ^uint64(0), 0); err == nil || errors.Is(err, patree.ErrBatchAborted) {
		t.Fatalf("scan of %d pairs over the wire: %d pairs, %v; want the request refused alone", n, len(pairs), err)
	}
	alive("an over-limit result")
	b := c.NewBatch()
	for k := uint64(1); k <= 4; k++ {
		b.Scan(0, ^uint64(0), 0)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err == nil || errors.Is(err, patree.ErrBatchAborted) {
		t.Fatalf("batch of four full scans: %v, want its response refused alone", err)
	}
	b.Release()
	alive("an over-limit batch result")

	huge := make([]byte, proto.MaxFrame)
	if err := c.Put(1, huge); !errors.Is(err, proto.ErrFrameTooLarge) {
		t.Fatalf("put of a %d-byte value: %v, want %v", len(huge), err, proto.ErrFrameTooLarge)
	}
	b = c.NewBatch()
	b.Put(1, huge)
	if err := b.Commit(); !errors.Is(err, proto.ErrFrameTooLarge) {
		t.Fatalf("batch put of a %d-byte value: %v, want %v", len(huge), err, proto.ErrFrameTooLarge)
	}
	b.Release()
	alive("an over-limit request")
}
