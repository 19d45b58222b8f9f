package proto_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/client"
	"github.com/patree/patree/internal/proto"
	"github.com/patree/patree/internal/server"
)

// readFull reads one frame from nc and returns it whole, length prefix
// included.
func readFull(t *testing.T, nc net.Conn) []byte {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := proto.ReadFrame(nc, nil)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return proto.AppendFrame(nil, proto.FrameID(body), proto.FrameKind(body), proto.FrameBody(body))
}

// TestGoldenServer replays the golden requests in order to a server over
// a fresh DB and holds each response to its golden bytes: the server
// decodes every golden request and encodes every golden response.
func TestGoldenServer(t *testing.T) {
	db, err := patree.Open(patree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Options{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for _, g := range proto.Golden {
		if _, err := nc.Write(proto.Unhex(g.Req)); err != nil {
			t.Fatal(err)
		}
		if got, want := readFull(t, nc), proto.Unhex(g.Resp); !bytes.Equal(got, want) {
			t.Errorf("%s: response\n got %x\nwant %x", g.Name, got, want)
		}
	}
}

// withoutIDs blanks a request frame's request id and span id, which a
// client mints at run time.
func withoutIDs(frame []byte) []byte {
	f := append([]byte(nil), frame...)
	clear(f[4:12])
	if f[12]&proto.FlagSpan != 0 {
		clear(f[13:21])
	}
	return f
}

// issue runs g's ops through the client's public API and returns what
// the client delivered.
func issue(c *client.Conn, g proto.GoldenExchange) []patree.Result {
	var out []patree.Result
	if !g.Batch {
		op := g.Ops[0]
		var h *patree.Handle
		var err error
		switch op.Kind {
		case patree.OpPut:
			h, err = c.PutAsync(op.Key, op.Value)
		case patree.OpGet:
			h, err = c.GetAsync(op.Key)
		case patree.OpUpdate:
			h, err = c.UpdateAsync(op.Key, op.Value)
		case patree.OpDelete:
			h, err = c.DeleteAsync(op.Key)
		case patree.OpScan:
			h, err = c.ScanAsync(op.Key, op.End, op.Limit)
		case patree.OpSync:
			h, err = c.SyncAsync()
		}
		if err != nil {
			return []patree.Result{{Err: err}}
		}
		defer h.Release()
		return []patree.Result{{Found: h.Found(), Value: h.Value(), Pairs: h.Pairs(), Err: h.Err()}}
	}
	b := c.NewBatch()
	defer b.Release()
	for _, op := range g.Ops {
		switch op.Kind {
		case patree.OpPut:
			b.Put(op.Key, op.Value)
		case patree.OpGet:
			b.Get(op.Key)
		case patree.OpUpdate:
			b.Update(op.Key, op.Value)
		case patree.OpDelete:
			b.Delete(op.Key)
		case patree.OpScan:
			b.Scan(op.Key, op.End, op.Limit)
		case patree.OpSync:
			b.Sync()
		}
	}
	commit := b.Commit
	if g.Try {
		commit = b.TryCommit
	}
	if err := commit(); err != nil {
		return []patree.Result{{Err: err}}
	}
	for i := range g.Ops {
		out = append(out, patree.Result{Found: b.Found(i), Value: b.Value(i), Pairs: b.Pairs(i), Err: b.Err(i)})
	}
	return out
}

// TestGoldenClient drives the client's API through every golden request
// against a scripted peer. Each frame the client writes must equal the
// golden request, ids aside, and each golden response played back must
// deliver the golden results.
func TestGoldenClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dial := func(opts client.Options) (*client.Conn, net.Conn) {
		c, err := client.Dial(ln.Addr().String(), opts)
		if err != nil {
			t.Fatal(err)
		}
		nc, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return c, nc
	}
	plain, plainNC := dial(client.Options{})
	defer plain.Close()
	defer plainNC.Close()
	// The traced connection samples every request once the peer grants
	// trace propagation. A round trip after the hello answer guarantees the
	// client has read it.
	traced, tracedNC := dial(client.Options{Trace: true, SampleEvery: 1})
	defer traced.Close()
	defer tracedNC.Close()
	hello := readFull(t, tracedNC)
	tracedNC.Write(proto.AppendHello(nil, proto.FrameID(hello[4:]), proto.StatusOK, proto.Version, proto.HelloFlagTrace))
	h, err := traced.SyncAsync()
	if err != nil {
		t.Fatal(err)
	}
	sync := readFull(t, tracedNC)
	tracedNC.Write(proto.AppendFrame(nil, proto.FrameID(sync[4:]), proto.StatusOK, []byte{0}))
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	h.Release()

	for _, g := range proto.Golden {
		if g.Ops == nil {
			continue
		}
		c, nc := plain, plainNC
		if g.Span != 0 {
			c, nc = traced, tracedNC
		}
		done := make(chan []patree.Result, 1)
		go func() { done <- issue(c, g) }()
		got := readFull(t, nc)
		if want := proto.Unhex(g.Req); !bytes.Equal(withoutIDs(got), withoutIDs(want)) {
			t.Errorf("%s: request\n got %x\nwant %x", g.Name, got, want)
		}
		resp := proto.Unhex(g.Resp)
		copy(resp[4:12], got[4:12])
		nc.Write(resp)
		res := <-done
		if len(res) != len(g.Results) {
			t.Fatalf("%s: %d results, want %d (%v)", g.Name, len(res), len(g.Results), res)
		}
		for i := range res {
			if got, want := proto.DescribeResult(res[i]), proto.DescribeResult(g.Results[i]); got != want {
				t.Errorf("%s: op %d delivered\n got %s\nwant %s", g.Name, i, got, want)
			}
		}
	}
}
