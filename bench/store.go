package main

import (
	"sync"
	"sync/atomic"

	patree "github.com/patree/patree"
)

// storeWrap sits between server.New and the DB. The server reaches the
// engine only through Store.NewBatch, so that is the one boundary to
// watch. Untraced, it hands out the DB's own batches and adds nothing.
// Traced, it hands out remote batches whose commit lands back here
// (CommitStaged), re-stages the operations on a real DB batch and times
// commit → last result: the "store.batch" span, the server's view of
// everything below it.
type storeWrap struct {
	*patree.DB
	clock  func() int64
	tr     *tracer
	traced atomic.Bool

	mu        sync.Mutex
	spanNs    samples // commit → last result, per batch
	commitNs  int64   // Σ time inside Commit/TryCommit
	waitNs    samples // commit returned → last result, per batch
	tracedOps uint64
}

// NewBatch implements patree.Store.
func (s *storeWrap) NewBatch() *patree.Batch {
	if !s.traced.Load() {
		return s.DB.NewBatch()
	}
	return patree.NewRemoteBatch(s)
}

// CommitStaged implements patree.BatchCommitter for the traced batches.
func (s *storeWrap) CommitStaged(ops []patree.BatchOp, resolve []func(patree.Result), try bool) error {
	t0 := s.clock()
	id := s.tr.begin(spanStore, t0)
	b := s.DB.NewBatch()
	kinds := make([]patree.OpKind, len(ops))
	for i, op := range ops {
		kinds[i] = op.Kind
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
		if op.Span != 0 {
			b.SetSpan(i, op.Span)
		}
	}
	var err error
	if try {
		err = b.TryCommit()
	} else {
		err = b.Commit()
	}
	if err != nil {
		b.Release()
		s.tr.end(id, s.clock())
		return err
	}
	t1 := s.clock()
	res := append(make([]func(patree.Result), 0, len(resolve)), resolve...)
	// The batch's results arrive asynchronously; one goroutine per batch
	// forwards them, as the server's own dispatcher does above us. It
	// ends when the batch completes, which DB.Close waits for.
	go func() {
		for i, deliver := range res {
			r := patree.Result{Err: b.Err(i)}
			if r.Err == nil {
				r.Found = b.Found(i)
				switch kinds[i] {
				case patree.OpGet:
					r.Value = b.Value(i)
				case patree.OpScan:
					r.Pairs = b.Pairs(i)
				}
			}
			deliver(r)
		}
		t2 := s.clock()
		s.tr.end(id, t2)
		b.Release()
		s.mu.Lock()
		s.spanNs = append(s.spanNs, t2-t0)
		s.waitNs = append(s.waitNs, t2-t1)
		s.commitNs += t1 - t0
		s.tracedOps += uint64(len(res))
		s.mu.Unlock()
	}()
	return nil
}

// storeTimings is what the traced batches recorded since the last drain.
type storeTimings struct {
	spanNs, waitNs samples
	commitNs       int64
	ops            uint64
}

func (s *storeWrap) drain() storeTimings {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := storeTimings{spanNs: s.spanNs, waitNs: s.waitNs, commitNs: s.commitNs, ops: s.tracedOps}
	s.spanNs, s.waitNs, s.commitNs, s.tracedOps = nil, nil, 0, 0
	return t
}
