package server_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/internal/proto"
	"github.com/patree/patree/internal/server"
)

// pipeListener serves in-memory connections: dial hands the server one
// end of a net.Pipe, so a fuzz run opens no socket.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() net.Conn {
	c, s := net.Pipe()
	l.conns <- s
	return c
}

// fuzzFrame is one request frame of a fuzz input: its kind byte, span
// flag included, and its body.
type fuzzFrame struct {
	kind uint8
	body []byte
}

// splitFrames reads a fuzz input as up to 64 frames, each a kind byte, a
// u16 body length and the body (cut short by the end of the input).
func splitFrames(data []byte) []fuzzFrame {
	var frames []fuzzFrame
	for len(data) >= 3 && len(frames) < 64 {
		n := min(int(binary.LittleEndian.Uint16(data[1:])), len(data)-3)
		frames = append(frames, fuzzFrame{kind: data[0], body: data[3 : 3+n]})
		data = data[3+n:]
	}
	return frames
}

// joinFrames is splitFrames' inverse, for the seeds.
func joinFrames(frames ...fuzzFrame) []byte {
	var data []byte
	for _, f := range frames {
		data = binary.LittleEndian.AppendUint16(append(data, f.kind), uint16(len(f.body)))
		data = append(data, f.body...)
	}
	return data
}

// answers reports whether status is a right answer to f: StatusBadRequest
// exactly when f is malformed, and StatusBusy only to a try batch; every
// other request waits for ring room and commits whatever its size.
func (f fuzzFrame) answers(status uint8) bool {
	kind, _, p, ok := proto.SplitSpan(f.kind, f.body)
	busyOK := false
	var err error
	switch {
	case !ok:
		return status == proto.StatusBadRequest
	case kind == proto.KindHello:
		_, _, err = proto.ParseHello(p)
	case kind == proto.KindBatch:
		_, busyOK, err = proto.DecodeBatch(p, nil)
	default:
		_, err = proto.DecodeRequest(kind, p)
	}
	if err != nil {
		return status == proto.StatusBadRequest
	}
	return status != proto.StatusBadRequest && (busyOK || status != proto.StatusBusy)
}

// batchFrame is a batch request frame's kind and body, as the client
// encodes them.
func batchFrame(try bool, ops []patree.BatchOp) fuzzFrame {
	b := proto.AppendBatch(nil, 0, 0, try, ops)
	return fuzzFrame{kind: proto.KindBatch, body: b[4+proto.HeaderLen:]}
}

func opFrame(span uint64, op patree.BatchOp) fuzzFrame {
	b := proto.AppendRequest(nil, 0, span, op)
	return fuzzFrame{kind: b[4+8], body: b[4+proto.HeaderLen:]}
}

// FuzzServerFrames sends arbitrary frame sequences — singles, batches
// with and without the try flag, hellos, span prefixes and malformed
// bodies — down one connection to a server over an in-memory DB with a
// 64-slot admission ring. Nothing may panic, every request id is
// answered exactly once, a malformed frame gets StatusBadRequest and
// nothing else does, only a try batch is ever refused StatusBusy, and
// nothing of the server or the DB is left running after both close.
func FuzzServerFrames(f *testing.F) {
	puts := make([]patree.BatchOp, 100)
	for i := range puts {
		puts[i] = patree.BatchOp{Kind: patree.OpPut, Key: uint64(i + 1), Value: []byte{byte(i)}}
	}
	f.Add(joinFrames(batchFrame(false, puts)))
	f.Add(joinFrames(
		fuzzFrame{kind: proto.KindHello, body: []byte{proto.Version, proto.HelloFlagTrace}},
		opFrame(0, patree.BatchOp{Kind: patree.OpPut, Key: 7, Value: []byte("seven")}),
		batchFrame(true, []patree.BatchOp{{Kind: patree.OpGet, Key: 7}, {Kind: patree.OpDelete, Key: 8}}),
		opFrame(9, patree.BatchOp{Kind: patree.OpScan, Key: 0, End: 100, Limit: 5}),
		batchFrame(true, puts),
		opFrame(0, patree.BatchOp{Kind: patree.OpSync}),
		fuzzFrame{kind: proto.KindGet, body: []byte{1, 2, 3}},
		fuzzFrame{kind: proto.KindGet | proto.FlagSpan, body: []byte{1}},
		fuzzFrame{kind: proto.KindBatch, body: []byte{0, 0xff, 0xff, 0xff, 0xff}},
		fuzzFrame{kind: 99},
		fuzzFrame{kind: proto.KindHello, body: []byte{1}},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := splitFrames(data)
		base := runtime.NumGoroutine()
		db, err := patree.Open(patree.Options{InboxDepth: 64, DeviceBlocks: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(db, server.Options{Trace: true})
		ln := newPipeListener()
		served := make(chan struct{})
		go func() { srv.Serve(ln); close(served) }()
		nc := ln.dial()
		var req []byte
		for i, fr := range frames {
			req = proto.AppendFrame(req, uint64(i+1), fr.kind, fr.body)
		}
		wrote := make(chan struct{})
		go func() { nc.Write(req); close(wrote) }()

		status := make(map[uint64]uint8, len(frames))
		read := func() (uint64, uint8, error) {
			nc.SetReadDeadline(time.Now().Add(30 * time.Second))
			body, err := proto.ReadFrame(nc, nil)
			if err != nil {
				return 0, 0, err
			}
			return proto.FrameID(body), proto.FrameKind(body), nil
		}
		for len(status) < len(frames) {
			id, st, err := read()
			if err != nil {
				t.Fatalf("%d of %d requests answered: %v", len(status), len(frames), err)
			}
			if _, dup := status[id]; dup || id == 0 || id > uint64(len(frames)) {
				t.Fatalf("response for request id %d: not asked, or answered twice", id)
			}
			status[id] = st
		}
		for i, fr := range frames {
			if st := status[uint64(i+1)]; !fr.answers(st) {
				t.Fatalf("frame %d (kind %#x, %d-byte body) answered status %d", i+1, fr.kind, len(fr.body), st)
			}
		}
		srv.Close()
		if id, _, err := read(); !errors.Is(err, io.EOF) {
			t.Fatalf("after every request was answered: response id %d, %v; want EOF", id, err)
		}
		nc.Close()
		<-wrote
		<-served
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left running after close, %d before open", runtime.NumGoroutine(), base)
			}
		}
	})
}
