package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/server"
)

// heldDevice blocks every Submit while held. The working thread issues
// its commands itself, so while one waits here the worker drains nothing
// from its admission ring.
type heldDevice struct {
	nvme.Device
	gate    sync.RWMutex // write-held while held
	held    bool         // touched only by the test goroutine
	waiting atomic.Int32 // Submits at the gate
}

func (d *heldDevice) hold() { d.gate.Lock(); d.held = true }

func (d *heldDevice) release() {
	if d.held {
		d.held = false
		d.gate.Unlock()
	}
}

func (d *heldDevice) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	qp, err := d.Device.AllocQueuePair(depth)
	return &heldQP{QueuePair: qp, dev: d}, err
}

type heldQP struct {
	nvme.QueuePair
	dev *heldDevice
}

func (q *heldQP) Submit(cmd *nvme.Command) error {
	q.dev.waiting.Add(1)
	q.dev.gate.RLock()
	q.dev.waiting.Add(-1)
	q.dev.gate.RUnlock()
	return q.QueuePair.Submit(cmd)
}

// serve runs a server over a DB on dev with an 8-slot admission ring and
// dials it. stop closes the connection, the server and the DB.
func serve(t *testing.T, dev nvme.Device) (*Conn, *server.Server, func()) {
	t.Helper()
	db, err := patree.Open(patree.Options{Device: dev, InboxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, srv, func() {
		c.Close()
		srv.Close()
		db.Close()
	}
}

// TestTryBatchBacklog: a try batch against a full admission ring returns
// ErrBacklog from TryCommit, as it does embedded. The server admitted
// nothing of it, the batch stays staged, and the same batch commits on a
// retry once the worker drains its ring. The ring is filled from a
// second connection: the singles of this one would hold its own reader
// in Commit, and its try batch behind them.
func TestTryBatchBacklog(t *testing.T) {
	dev := &heldDevice{Device: nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})}
	c, srv, stop := serve(t, dev)
	defer stop()
	filler, err := Dial(c.c.RemoteAddr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer filler.Close()
	defer dev.release() // runs first: teardown must not wait on a held worker

	// Fill the ring behind a worker held at its first write.
	dev.hold()
	var handles []*patree.Handle
	for k := uint64(1); k <= 64; k++ {
		h, err := filler.PutAsync(k, []byte("single"))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// The ring is full only once the worker waits at the gate: before
	// that it may still drain the ring into its ready set. Probe with
	// one-op try batches until one is refused; a probe admitted before
	// the ring filled commits later like any other write.
	for deadline := time.Now().Add(30 * time.Second); dev.waiting.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never reached the held device")
		}
	}
	var probes []*patree.Batch
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		p := c.NewBatch()
		p.Put(200+uint64(len(probes)), []byte("probe"))
		err := p.TryCommit()
		if errors.Is(err, patree.ErrBacklog) {
			p.Release()
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, p)
		if time.Now().After(deadline) {
			t.Fatal("no try batch refused behind a held device")
		}
	}

	b := c.NewBatch()
	for k := uint64(101); k <= 104; k++ {
		b.Put(k, []byte(fmt.Sprintf("batch%d", k)))
	}
	if err := b.TryCommit(); !errors.Is(err, patree.ErrBacklog) {
		t.Fatalf("TryCommit against a full ring = %v, want ErrBacklog", err)
	}
	if st := srv.Stats(); st.WireBatches != uint64(len(probes)) || st.BatchOps != uint64(len(probes)) {
		t.Fatalf("refused try batch: server admitted %d batches, %d ops; want the %d probes", st.WireBatches, st.BatchOps, len(probes))
	}
	if b.Len() != 4 {
		t.Fatalf("refused batch holds %d ops, want 4 still staged", b.Len())
	}

	dev.release()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		err := b.TryCommit()
		if err == nil {
			break
		}
		if !errors.Is(err, patree.ErrBacklog) || time.Now().After(deadline) {
			t.Fatalf("TryCommit after the release = %v", err)
		}
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	b.Release()
	for _, p := range probes {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	for _, h := range handles {
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	for k := uint64(101); k <= 104; k++ {
		if v, found, err := c.Get(k); err != nil || !found || string(v) != fmt.Sprintf("batch%d", k) {
			t.Fatalf("get(%d) after the retried batch = %q %v %v", k, v, found, err)
		}
	}
	t.Logf("%d probes admitted before the ring filled", len(probes))
}

// TestRemoteWaitContext: WaitContext on a remote handle whose operation
// is held returns the context's error. The operation still completes on
// the server, its response reclaims the detached handle, and nothing is
// left running once the connection, server and DB close.
func TestRemoteWaitContext(t *testing.T) {
	base := runtime.NumGoroutine()
	dev := &heldDevice{Device: nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})}
	c, _, stop := serve(t, dev)
	stopped := false
	defer func() {
		dev.release()
		if !stopped {
			stop()
		}
	}()

	dev.hold()
	h, err := c.PutAsync(1, []byte("late"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := h.WaitContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitContext on a held put = %v, want %v", err, context.DeadlineExceeded)
	}
	received := c.Stats().Received
	dev.release()
	// The response resolves the detached handle, which recycles it; no
	// request stays registered.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.pmu.Lock()
		pending := len(c.pend)
		c.pmu.Unlock()
		if pending == 0 && c.Stats().Received > received {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests still registered after the release", pending)
		}
	}
	if v, found, err := c.Get(1); err != nil || !found || string(v) != "late" {
		t.Fatalf("get after the detached put = %q %v %v", v, found, err)
	}
	stop()
	stopped = true
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running after close, %d before", runtime.NumGoroutine(), base)
		}
	}
}
