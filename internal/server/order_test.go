package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/client"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/server"
	"github.com/patree/patree/internal/sim"
)

// wireStep is one pipelined request of an order run: a single op (h) or
// a wire batch (b), and the ops it carries in staging order.
type wireStep struct {
	ops   []patree.BatchOp
	h     *patree.Handle
	b     *patree.Batch
	tried chan error // a try batch's TryCommit outcome
}

// randPointOp draws a point op on keys 1..keys; its value, if any, names
// the step and position that wrote it.
func randPointOp(rng *sim.RNG, keys, step, pos int) patree.BatchOp {
	op := patree.BatchOp{Key: rng.Uint64n(uint64(keys)) + 1}
	switch rng.Intn(8) {
	case 0, 1, 2:
		op.Kind, op.Value = patree.OpPut, []byte(fmt.Sprintf("p%d.%d", step, pos))
	case 3, 4, 5:
		op.Kind = patree.OpGet
	case 6:
		op.Kind, op.Value = patree.OpUpdate, []byte(fmt.Sprintf("u%d.%d", step, pos))
	default:
		op.Kind = patree.OpDelete
	}
	return op
}

// pipelineSteps issues n random point requests on st without waiting
// for any, and returns them in issue order. With batches, one request in
// five is a wire batch, a third of those try batches. A TryCommit waits
// for its answer, so it runs on its own goroutine, and the next request
// is issued only once sent, the frames st has written, counts its frame:
// st must have written no frame before the first step.
func pipelineSteps(t *testing.T, st patree.Store, sent func() uint64, rng *sim.RNG, n, keys int, batches bool) []wireStep {
	t.Helper()
	steps := make([]wireStep, 0, n)
	for i := 0; i < n; i++ {
		var s wireStep
		switch r := rng.Intn(15); {
		case batches && r < 3:
			s.b = st.NewBatch()
			for j := rng.Intn(6); j >= 0; j-- {
				op := randPointOp(rng, keys, i, len(s.ops))
				s.b.Stage(op)
				s.ops = append(s.ops, op)
			}
			if r == 2 {
				s.tried = make(chan error, 1)
				go func(b *patree.Batch, tried chan error) { tried <- b.TryCommit() }(s.b, s.tried)
				for deadline := time.Now().Add(10 * time.Second); sent() <= uint64(i); time.Sleep(10 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("step %d: try batch never written", i)
					}
				}
			} else if err := s.b.Commit(); err != nil {
				t.Fatalf("step %d: commit: %v", i, err)
			}
		default:
			op := randPointOp(rng, keys, i, 0)
			var err error
			switch op.Kind {
			case patree.OpPut:
				s.h, err = st.PutAsync(op.Key, op.Value)
			case patree.OpGet:
				s.h, err = st.GetAsync(op.Key)
			case patree.OpUpdate:
				s.h, err = st.UpdateAsync(op.Key, op.Value)
			case patree.OpDelete:
				s.h, err = st.DeleteAsync(op.Key)
			}
			if err != nil {
				t.Fatalf("step %d: %v: %v", i, op.Kind, err)
			}
			s.ops = []patree.BatchOp{op}
		}
		steps = append(steps, s)
	}
	return steps
}

// checkSteps replays steps in issue order against a flat-map model and
// returns the try batches refused. A refused try batch applies nothing;
// every other request applies its ops in order, and each result must be
// the model's. The whole tree must equal the model at the end.
func checkSteps(t *testing.T, st patree.Store, steps []wireStep) (refused int) {
	t.Helper()
	model := map[uint64][]byte{}
	misses := 0
	for i, s := range steps {
		if s.tried != nil {
			if err := <-s.tried; errors.Is(err, patree.ErrBacklog) {
				refused++
				s.b.Release()
				continue
			} else if err != nil {
				t.Fatalf("step %d: try commit: %v", i, err)
			}
		}
		for j, op := range s.ops {
			var (
				err   error
				found bool
				value []byte
			)
			if s.h != nil {
				err, found, value = s.h.Err(), s.h.Found(), s.h.Value()
			} else {
				err, found, value = s.b.Err(j), s.b.Found(j), s.b.Value(j)
			}
			if err != nil {
				t.Fatalf("step %d op %d: %v(%d): %v", i, j, op.Kind, op.Key, err)
			}
			want, existed := model[op.Key]
			ok := found == existed
			switch op.Kind {
			case patree.OpPut:
				ok = true
				model[op.Key] = op.Value
			case patree.OpGet:
				ok = ok && bytes.Equal(value, want)
			case patree.OpUpdate:
				if existed {
					model[op.Key] = op.Value
				}
			case patree.OpDelete:
				delete(model, op.Key)
			}
			if !ok {
				if misses++; misses <= 5 {
					t.Errorf("step %d op %d: %v(%d) = %q/%v, model %q/%v", i, j, op.Kind, op.Key, value, found, want, existed)
				}
			}
		}
		if s.h != nil {
			s.h.Release()
		} else {
			s.b.Release()
		}
	}
	if misses > 0 {
		t.Fatalf("%d of %d requests disagreed with the model: the connection reordered its own requests", misses, len(steps))
	}
	pairs, err := st.Scan(0, ^uint64(0), 0)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if len(pairs) != len(model) {
		t.Fatalf("final scan = %d keys, model %d", len(pairs), len(model))
	}
	for _, kv := range pairs {
		if !bytes.Equal(kv.Value, model[kv.Key]) {
			t.Fatalf("final scan key %d = %q, model %q", kv.Key, kv.Value, model[kv.Key])
		}
	}
	return refused
}

// awaitHeld waits until the worker is held at the device, then gives the
// pipelined requests a moment to pile up against the full ring.
func awaitHeld(t *testing.T, gate *gatedDevice) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); gate.waiting.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never reached the held device")
		}
	}
	time.Sleep(20 * time.Millisecond)
}

// TestWireOrderOracle pipelines singles, non-try batches and try batches
// over one connection into an 8-slot admission ring behind a held
// device, so the ring fills with requests in flight, and checks every
// result against the flat-map model in issue order. Only a try batch may
// be refused StatusBusy; every other request waits for the ring and
// keeps its place. A connection that retransmitted its refused singles
// after a back-off let later requests overtake them (read-your-write
// misses).
func TestWireOrderOracle(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			gate := &gatedDevice{Device: nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})}
			addr, db, srv, stop := startTracedServer(t, patree.Options{Device: gate, Shards: shards, InboxDepth: 8}, server.Options{})
			defer stop()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			defer gate.release() // runs first: teardown must not wait on a held worker

			gate.hold()
			rng := sim.NewRNG(uint64(40 + shards))
			steps := pipelineSteps(t, c, func() uint64 { return c.Stats().Sent }, rng, 400, 24, true)
			awaitHeld(t, gate)
			gate.release()
			refused := checkSteps(t, c, steps)

			if st := db.Stats(); st.AdmitWaits == 0 {
				t.Fatal("no admission waited for the ring: the run never filled it")
			}
			if busy := srv.Stats().Busy; busy != uint64(refused) {
				t.Fatalf("server answered StatusBusy %d times, to %d refused try batches", busy, refused)
			}
			if n := c.Stats().Sent; n != uint64(len(steps))+1 { // the final scan
				t.Fatalf("client wrote %d frames for %d requests", n, len(steps)+1)
			}
			t.Logf("%d requests, %d try batches refused", len(steps), refused)
		})
	}
}

// TestPoolKeyOrder: a Pool keeps per-key order. Point ops on one key
// travel on one of its connections, so a Get pipelined after a Put of
// the same key sees it, even with the ring full and the four
// connections' readers waiting on it.
func TestPoolKeyOrder(t *testing.T) {
	gate := &gatedDevice{Device: nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})}
	addr, _, stop := startServer(t, patree.Options{Device: gate, Shards: 2, InboxDepth: 8}, server.Options{})
	defer stop()
	pool, err := client.DialPool(addr, 4, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pool.Close()
	defer gate.release()

	gate.hold()
	steps := pipelineSteps(t, pool, func() uint64 { return pool.Stats().Sent }, sim.NewRNG(5), 400, 24, false)
	awaitHeld(t, gate)
	gate.release()
	checkSteps(t, pool, steps)
}
