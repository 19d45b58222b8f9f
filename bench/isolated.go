package main

import (
	"bytes"
	"encoding/binary"
	"time"

	"github.com/patree/patree/internal/buffer"
	"github.com/patree/patree/internal/latch"
	"github.com/patree/patree/internal/proto"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// sink keeps the timed calls' results alive so the compiler cannot drop
// the calls.
var sink uint64

// timeLoop calls f iters times, five times over, and returns the median
// ns per call.
func timeLoop(iters int, f func(i int)) float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f(i)
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(iters))
	}
	return medianOf(runs)
}

// fullLeaf is a leaf packed with 100-byte values; fullInner an inner node
// at its key capacity.
func fullLeaf() *storage.Node {
	n := storage.NewLeaf(7)
	val := make([]byte, 100)
	for k := uint64(1); n.LeafFits(len(val)); k++ {
		n.InsertLeaf(k*10, val)
	}
	return n
}

func fullInner() *storage.Node {
	n := storage.NewInner(8, 1)
	n.Children = []storage.PageID{100}
	for k := 1; k <= storage.InnerMaxKeys; k++ {
		n.InsertInner(uint64(k)*10, storage.PageID(100+k))
	}
	return n
}

// isolated times each small layer's public functions alone: a
// single-threaded loop on fixed inputs, so the numbers move only when
// that layer's code does.
func isolated(res *result, iters int) {

	// proto: one 100-byte Put request frame.
	body := make([]byte, 8+100)
	binary.LittleEndian.PutUint64(body, 42)
	var frame []byte
	res.set("proto.encode_ns", timeLoop(iters, func(i int) {
		frame = proto.AppendFrame(frame[:0], uint64(i), proto.KindPut, body)
	}))
	rd := bytes.NewReader(frame)
	var rbuf []byte
	res.set("proto.decode_ns", timeLoop(iters, func(int) {
		rd.Reset(frame)
		b, err := proto.ReadFrame(rd, rbuf)
		if err != nil {
			panic(err)
		}
		rbuf = b[:0]
		kind, _, payload, _ := proto.SplitSpan(proto.FrameKind(b), proto.FrameBody(b))
		sink += proto.FrameID(b) + uint64(kind) + uint64(len(payload))
	}))

	// latch: uncontended exclusive acquire + release.
	lt := latch.NewTable()
	res.set("latch.acquire_release_ns", timeLoop(iters, func(i int) {
		id := storage.PageID(i%64 + 1)
		lt.Acquire(id, latch.Exclusive, nil)
		lt.Release(id, latch.Exclusive)
	}))

	// buffer: a hit in a full 4096-page cache; a fill that evicts.
	page := fullLeaf().Encode()
	ro := buffer.NewReadOnly(bufferPages)
	for id := 1; id <= bufferPages; id++ {
		ro.FillOnRead(storage.PageID(id), page)
	}
	res.set("buffer.get_hit_ns", timeLoop(iters, func(i int) {
		b, _ := ro.Get(storage.PageID(i%bufferPages + 1))
		sink += uint64(len(b))
	}))
	next := storage.PageID(bufferPages)
	res.set("buffer.fill_evict_ns", timeLoop(iters, func(int) {
		next++
		ro.FillOnRead(next, page)
	}))

	// storage: search, decode and encode a full leaf and a full inner
	// node, alternating.
	nodes := []*storage.Node{fullLeaf(), fullInner()}
	images := [][]byte{nodes[0].Encode(), nodes[1].Encode()}
	res.set("storage.search_page_ns", timeLoop(iters, func(i int) {
		st, err := storage.SearchPage(images[i&1], uint64(i%40)*10)
		if err != nil {
			panic(err)
		}
		sink += uint64(st.Child)
	}))
	res.set("storage.node_decode_ns", timeLoop(iters, func(i int) {
		n, err := storage.DecodeNode(nodes[i&1].ID, images[i&1])
		if err != nil {
			panic(err)
		}
		sink += uint64(n.NumKeys())
	}))
	scratch := make([]byte, storage.PageSize)
	res.set("storage.node_encode_ns", timeLoop(iters, func(i int) {
		nodes[i&1].EncodeTo(scratch)
		sink += uint64(scratch[0])
	}))

	// wal: append one 530-byte record (a page image plus its header),
	// flushing every 8 and resetting when the log fills.
	rec := make([]byte, 530)
	log := wal.NewLog(storage.PageSize, 8192)
	drop := func(uint64, []byte) {}
	res.set("wal.append_ns", timeLoop(iters, func(i int) {
		if log.Remaining() < 2*len(rec) {
			log.Reset(drop)
		}
		if _, err := log.Append(rec); err != nil {
			panic(err)
		}
		if i%8 == 7 {
			log.Flush(drop)
		}
	}))

	// sched: push + pop on the prioritized ready queue at depth 64.
	q := sched.NewPriority()
	for i := 0; i < 64; i++ {
		q.Push(sched.Entry{Seq: uint64(i)})
	}
	res.set("sched.queue_push_pop_ns", timeLoop(iters, func(i int) {
		q.Push(sched.Entry{Seq: uint64(64 + i), HoldsWrite: i%8 == 0})
		e, _ := q.Pop()
		sink += e.Seq
	}))
}
