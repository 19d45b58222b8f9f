package patree

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/patree/patree/internal/trace"
)

// A spelling runs one chunk of logical operations through one public
// way of saying them and returns each operation's outcome. Single-op
// spellings run the chunk one operation after the other; batch spellings
// stage it whole and commit once.
type spelling struct {
	name string
	run  func(db *DB, chunk []BatchOp) ([]Result, error)
}

func each(chunk []BatchOp, one func(BatchOp) Result) ([]Result, error) {
	out := make([]Result, len(chunk))
	for i, op := range chunk {
		out[i] = one(op)
		if out[i].Err != nil {
			return nil, out[i].Err
		}
	}
	return out, nil
}

func viaBatch(db *DB, chunk []BatchOp, commit func(*Batch) error) ([]Result, error) {
	b := db.NewBatch()
	defer b.Release()
	for _, op := range chunk {
		switch op.Kind {
		case OpPut:
			b.Put(op.Key, op.Value)
		case OpGet:
			b.Get(op.Key)
		case OpUpdate:
			b.Update(op.Key, op.Value)
		case OpDelete:
			b.Delete(op.Key)
		case OpScan:
			b.Scan(op.Key, op.End, op.Limit)
		case OpSync:
			b.Sync()
		}
	}
	if err := commit(b); err != nil {
		return nil, err
	}
	if err := b.Wait(); err != nil {
		return nil, err
	}
	out := make([]Result, len(chunk))
	for i := range chunk {
		out[i] = Result{Found: b.Found(i), Value: b.Value(i), Pairs: b.Pairs(i)}
	}
	return out, nil
}

func fromHandle(h *Handle, err error) Result {
	if err != nil {
		return Result{Err: err}
	}
	defer h.Release()
	return Result{Found: h.Found(), Value: h.Value(), Pairs: h.Pairs(), Err: h.Err()}
}

var spellings = []spelling{
	{"blocking", func(db *DB, chunk []BatchOp) ([]Result, error) {
		return each(chunk, func(op BatchOp) (r Result) {
			switch op.Kind {
			case OpPut:
				r.Err = db.Put(op.Key, op.Value)
			case OpGet:
				r.Value, r.Found, r.Err = db.Get(op.Key)
			case OpUpdate:
				r.Found, r.Err = db.Update(op.Key, op.Value)
			case OpDelete:
				r.Found, r.Err = db.Delete(op.Key)
			case OpScan:
				r.Pairs, r.Err = db.Scan(op.Key, op.End, op.Limit)
			case OpSync:
				r.Err = db.Sync()
			}
			return r
		})
	}},
	{"async", func(db *DB, chunk []BatchOp) ([]Result, error) {
		return each(chunk, func(op BatchOp) Result {
			switch op.Kind {
			case OpPut:
				return fromHandle(db.PutAsync(op.Key, op.Value))
			case OpGet:
				return fromHandle(db.GetAsync(op.Key))
			case OpUpdate:
				return fromHandle(db.UpdateAsync(op.Key, op.Value))
			case OpDelete:
				return fromHandle(db.DeleteAsync(op.Key))
			case OpScan:
				return fromHandle(db.ScanAsync(op.Key, op.End, op.Limit))
			}
			return fromHandle(db.SyncAsync())
		})
	}},
	{"context", func(db *DB, chunk []BatchOp) ([]Result, error) {
		ctx := context.Background()
		return each(chunk, func(op BatchOp) (r Result) {
			switch op.Kind {
			case OpPut:
				r.Err = db.PutContext(ctx, op.Key, op.Value)
			case OpGet:
				r.Value, r.Found, r.Err = db.GetContext(ctx, op.Key)
			case OpUpdate:
				r.Found, r.Err = db.UpdateContext(ctx, op.Key, op.Value)
			case OpDelete:
				r.Found, r.Err = db.DeleteContext(ctx, op.Key)
			case OpScan:
				r.Pairs, r.Err = db.ScanContext(ctx, op.Key, op.End, op.Limit)
			case OpSync:
				r.Err = db.SyncContext(ctx)
			}
			return r
		})
	}},
	{"batch-commit", func(db *DB, chunk []BatchOp) ([]Result, error) {
		return viaBatch(db, chunk, (*Batch).Commit)
	}},
	{"batch-trycommit", func(db *DB, chunk []BatchOp) ([]Result, error) {
		return viaBatch(db, chunk, func(b *Batch) error {
			for {
				if err := b.TryCommit(); !errors.Is(err, ErrBacklog) {
					return err
				}
			}
		})
	}},
}

// spellingStream is the seeded op stream, cut into chunks a batch may
// hold at once: runs of point operations (a shard applies its members in
// staging order, so repeated keys are fine), with every scan and sync
// alone — a scattered scan is unordered against point writes staged
// beside it.
func spellingStream(seed int64) [][]BatchOp {
	rng := rand.New(rand.NewSource(seed))
	var chunks [][]BatchOp
	for len(chunks) < 120 {
		switch rng.Intn(5) {
		case 0:
			lo := uint64(rng.Intn(200))
			chunks = append(chunks, []BatchOp{{Kind: OpScan, Key: lo, End: lo + uint64(rng.Intn(80)), Limit: rng.Intn(12)}})
		case 1:
			chunks = append(chunks, []BatchOp{{Kind: OpSync}})
		default:
			chunk := make([]BatchOp, 1+rng.Intn(9))
			for i := range chunk {
				key := uint64(rng.Intn(200))
				val := []byte(fmt.Sprintf("s%d-%d-%d", seed, len(chunks), i))
				chunk[i] = []BatchOp{
					{Kind: OpPut, Key: key, Value: val},
					{Kind: OpPut, Key: key, Value: val},
					{Kind: OpGet, Key: key},
					{Kind: OpGet, Key: key},
					{Kind: OpUpdate, Key: key, Value: val},
					{Kind: OpDelete, Key: key},
				}[rng.Intn(6)]
			}
			chunks = append(chunks, chunk)
		}
	}
	return chunks
}

// applyModel is the flat-map reference for one operation.
func applyModel(model map[uint64][]byte, op BatchOp) Result {
	old, had := model[op.Key]
	switch op.Kind {
	case OpPut:
		model[op.Key] = op.Value
		return Result{Found: had}
	case OpGet:
		return Result{Found: had, Value: old}
	case OpUpdate:
		if had {
			model[op.Key] = op.Value
		}
		return Result{Found: had}
	case OpDelete:
		delete(model, op.Key)
		return Result{Found: had}
	case OpScan:
		return Result{Pairs: oracleScan(model, op.Key, op.End, op.Limit)}
	}
	return Result{}
}

// describe renders one outcome for comparison. A put's Found (whether it
// replaced a value) is left out: the blocking spellings do not report it.
func describe(op BatchOp, r Result) string {
	var sb strings.Builder
	found := r.Found && op.Kind != OpPut
	fmt.Fprintf(&sb, "%s(%d,%d,%d) found=%v value=%q pairs=", op.Kind, op.Key, op.End, op.Limit, found, r.Value)
	for _, kv := range r.Pairs {
		fmt.Fprintf(&sb, "%d:%q ", kv.Key, kv.Value)
	}
	return sb.String()
}

// TestSpellingEquivalence runs one seeded op stream through every public
// spelling × shard count, each on its own DB, with and without readAlong
// reading concurrently (concreads), and holds every outcome to the
// flat-map model — so the spellings agree with each other, whatever the
// topology, and reads racing the stream change none of its answers.
// After Close every spelling reports ErrClosed and returns its pooled
// handles and operations.
func TestSpellingEquivalence(t *testing.T) {
	const seed = 20260930
	stream := spellingStream(seed)
	var reference []string
	for _, shards := range []int{1, 3} {
		for _, conc := range []bool{false, true} {
			for _, sp := range spellings {
				t.Run(fmt.Sprintf("%s/shards=%d/concreads=%v", sp.name, shards, conc), func(t *testing.T) {
					db := openTest(t, Options{Shards: shards, BufferPages: 1024})
					stop := func() {}
					if conc {
						stop = readAlong(t, db)
					}
					model := map[uint64][]byte{}
					var transcript []string
					for ci, chunk := range stream {
						got, err := sp.run(db, chunk)
						if err != nil {
							t.Fatalf("seed %d chunk %d: %v", seed, ci, err)
						}
						for i, op := range chunk {
							want, line := applyModel(model, op), describe(op, got[i])
							if line != describe(op, want) {
								t.Fatalf("seed %d chunk %d op %d:\n got  %s\n want %s", seed, ci, i, line, describe(op, want))
							}
							transcript = append(transcript, line)
						}
					}
					if reference == nil {
						reference = transcript
					} else if !reflect.DeepEqual(transcript, reference) {
						t.Fatalf("seed %d: transcript differs from the first spelling's", seed)
					}

					stop()
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					probe := []BatchOp{{Kind: OpGet, Key: 1}, {Kind: OpPut, Key: 2, Value: []byte("late")}, {Kind: OpScan, End: 50}, {Kind: OpSync}}
					closedRun := func() {
						for _, op := range probe {
							if _, err := sp.run(db, []BatchOp{op}); !errors.Is(err, ErrClosed) {
								t.Fatalf("%s after Close = %v, want ErrClosed", op.Kind, err)
							}
						}
					}
					closedRun()
					// A refused operation hands its handle back to the pool:
					// were it leaked, every further call would mint a new one.
					// (Under the race detector sync.Pool drops items at random.)
					if !raceEnabled {
						minted, mint := 0, handlePool.New
						handlePool.New = func() any { minted++; return mint() }
						for i := 0; i < 100; i++ {
							closedRun()
						}
						handlePool.New = mint
						if minted > 20 {
							t.Fatalf("%d refused operations minted %d handles: refused handles are not recycled", 100*len(probe), minted)
						}
					}
				})
			}
		}
	}
}

// TestBatchScanSpanReachesEveryShard: a span set on one staged scan must
// be stamped on every physical operation the scan scatters into.
func TestBatchScanSpanReachesEveryShard(t *testing.T) {
	const span = 0xfeed
	db := openTest(t, Options{Shards: 3, Trace: true})
	b := db.NewBatch()
	b.Put(7, []byte("x"))
	scan := b.Scan(0, 1<<40, 0)
	b.SetSpan(scan, span)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	b.Release()
	procs := db.TraceProcesses()
	if len(procs) != 3 {
		t.Fatalf("%d trace processes, want 3", len(procs))
	}
	for i, p := range procs {
		links := 0
		for _, e := range p.Events {
			if p.CodeNames[e.Code] == trace.SpanCodeLink {
				if e.Arg != span {
					t.Fatalf("shard %d linked span %#x, want %#x (the unspanned put must not link)", i, e.Arg, span)
				}
				links++
			}
		}
		if links != 1 {
			t.Fatalf("shard %d carries %d span links, want exactly 1", i, links)
		}
	}
}
