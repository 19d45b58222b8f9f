package client

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/internal/proto"
)

// fuzzReq is one request a FuzzClientFrames input issues: a single op
// (h) or a batch (b, try or not).
type fuzzReq struct {
	id    uint64 // set for a single
	h     *patree.Handle
	b     *patree.Batch
	try   bool
	tried chan error // a try batch's TryCommit outcome
}

// responseID is the request id a response's selector byte answers:
// ids[sel%len(ids)], or an id no request has when sel >= 0xf0.
func responseID(ids []uint64, sel uint8) uint64 {
	if sel >= 0xf0 {
		return 1000 + uint64(sel)
	}
	return ids[int(sel)%len(ids)]
}

// FuzzClientFrames answers a Conn's pipelined singles and batches from a
// fake server on a net.Pipe with fuzz-chosen response frames: ids of
// issued requests, duplicate and unknown ids, any status (StatusBusy to
// a single included) and any body, short batch bodies too. The fake
// server then hangs up. Nothing may panic, every request resolves
// exactly once (a refused try batch not at all, as it stays staged), a
// single first answered StatusBusy resolves with ErrBacklog, the Conn
// writes each request once and resends nothing, and Close returns.
//
// Input: byte 0 picks the number of requests (1–16), one byte each then
// picks its kind (put, get, scan, batch, try batch), and the rest is
// responses of id selector, status, body length and body.
func FuzzClientFrames(f *testing.F) {
	f.Add([]byte{3, 0, 1, 3, 0, proto.StatusOK, 1, 0, 1, proto.StatusBusy, 0, 2, proto.StatusOK, 4, 2, 0, 0, 0})
	f.Add([]byte{4, 0, 4, 4, 2,
		0, proto.StatusBusy, 0, // BUSY to a single
		1, proto.StatusBusy, 0, // BUSY to a try batch
		2, proto.StatusOK, 5, 2, 0, 0, 0, 0, // a batch body cut short
		0, proto.StatusOK, 1, 0, // a duplicate
		0xf3, proto.StatusOK, 0, // an unknown id
		3, proto.StatusOK, 5, 1, 0, 0, 0, 0})
	f.Fuzz(clientFrames)
}

// clientFrames is FuzzClientFrames' body.
func clientFrames(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	n := 1 + int(data[0])%16
	data = data[1:]
	nc, sc := net.Pipe()
	c := newConn(nc, Options{})

	// The fake server reads every request frame, and answers once the
	// test has wrapped every registered request's resolution.
	type wireReq struct {
		id   uint64
		kind uint8
	}
	got := make(chan wireReq, n)
	go func() {
		for {
			body, err := proto.ReadFrame(sc, nil)
			if err != nil {
				return
			}
			got <- wireReq{proto.FrameID(body), proto.FrameKind(body)}
		}
	}()

	// Issue the singles and non-try batches in order, numbered as the
	// Conn numbers them, then the try batches, each TryCommit on its
	// own goroutine.
	reqs := make([]fuzzReq, n)
	var tries []int
	var issued uint64
	for i := range reqs {
		var sel uint8
		if i < len(data) {
			sel = data[i] % 5
		}
		r := &reqs[i]
		var err error
		switch sel {
		case 0:
			r.h, err = c.PutAsync(uint64(i), []byte("v"))
		case 1:
			r.h, err = c.GetAsync(uint64(i))
		case 2:
			r.h, err = c.ScanAsync(0, uint64(i), 0)
		default:
			r.b, r.try = c.NewBatch(), sel == 4
			r.b.Put(uint64(i), []byte("b"))
			r.b.Get(uint64(i))
			if r.try {
				tries = append(tries, i)
				continue
			}
			err = r.b.Commit()
		}
		issued++
		if r.h != nil {
			r.id = issued
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	data = data[min(n, len(data)):]
	for _, i := range tries {
		r := &reqs[i]
		r.tried = make(chan error, 1)
		go func() { r.tried <- r.b.TryCommit() }()
	}
	var wire []wireReq
	for len(wire) < n {
		select {
		case w := <-got:
			wire = append(wire, w)
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d requests reached the server", len(wire), n)
		}
	}

	// Count every resolution: registered requests are only resolved by
	// the reader, and nothing has been answered yet.
	counts := map[uint64][]*atomic.Int32{}
	acks := map[uint64]chan error{}
	c.pmu.Lock()
	for id, p := range c.pend {
		count := func(resolve func(patree.Result)) func(patree.Result) {
			n := new(atomic.Int32)
			counts[id] = append(counts[id], n)
			return func(r patree.Result) { n.Add(1); resolve(r) }
		}
		if p.resolve != nil {
			p.resolve = count(p.resolve)
		}
		for i, r := range p.batchResolve {
			p.batchResolve[i] = count(r)
		}
		if p.ack != nil {
			acks[id] = p.ack
		}
	}
	c.pmu.Unlock()

	ids := make([]uint64, n)
	for i, w := range wire {
		ids[i] = w.id
	}
	first := map[uint64]uint8{} // the status that resolves each id
	var resp []byte
	for len(data) >= 3 && len(resp) < 64<<10 {
		id, status, blen := responseID(ids, data[0]), data[1], min(int(data[2]), len(data)-3)
		resp = proto.AppendFrame(resp, id, status, data[3:3+blen])
		if _, ok := first[id]; !ok {
			first[id] = status
		}
		data = data[3+blen:]
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc.Write(resp)
		sc.Close()
	}()

	for i := range reqs {
		r := &reqs[i]
		switch {
		case r.h != nil:
			err := r.h.Err()
			if first[r.id] == proto.StatusBusy && !errors.Is(err, patree.ErrBacklog) {
				t.Fatalf("request %d answered StatusBusy resolved with %v, want ErrBacklog", i, err)
			}
			r.h.Release()
		case r.try:
			if err := <-r.tried; err == nil {
				r.b.Wait()
			}
		default:
			r.b.Wait()
		}
	}
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	wg.Wait()

	for i := range reqs {
		r := &reqs[i]
		if r.b != nil {
			r.b.Release()
		}
	}
	for _, w := range wire {
		want := int32(1)
		if ack, ok := acks[w.id]; ok {
			if len(ack) != 0 {
				t.Fatalf("try batch %d: admission answered twice", w.id)
			}
			if s, ok := first[w.id]; !ok || s != proto.StatusOK {
				want = 0 // refused or never answered: stays staged
			}
		}
		for _, n := range counts[w.id] {
			if got := n.Load(); got != want {
				t.Fatalf("request %d (kind %#x) resolved %d times, want %d", w.id, w.kind, got, want)
			}
		}
	}
	if sent := c.Stats().Sent; sent != uint64(n) {
		t.Fatalf("client wrote %d frames for %d requests", sent, n)
	}
}
