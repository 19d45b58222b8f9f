// Asyncbatch: reach the paper's queue depth from one goroutine with the
// future-based async API and batched admission, then compare against the
// blocking API and demonstrate context cancellation.
//
//	go run ./examples/asyncbatch
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	patree "github.com/patree/patree"
)

const (
	keys   = 50_000
	window = 128 // operations kept in flight per caller
)

func main() {
	db, err := patree.Open(patree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Load with batches: each Commit hands the whole window to the
	// working thread in ONE admission-ring transaction.
	start := time.Now()
	for base := uint64(0); base < keys; base += window {
		b := db.NewBatch()
		for k := base; k < base+window && k < keys; k++ {
			b.Put(k, []byte(fmt.Sprintf("value-%d", k)))
		}
		if err := b.Commit(); err != nil {
			log.Fatal(err)
		}
		if err := b.Wait(); err != nil {
			log.Fatal(err)
		}
		b.Release()
	}
	fmt.Printf("batched load:   %d puts in %v\n", keys, time.Since(start).Round(time.Millisecond))

	// Read back with a sliding window of futures: issue ahead, harvest
	// behind, never more than `window` outstanding.
	start = time.Now()
	handles := make([]*patree.Handle, 0, window)
	for k := uint64(0); k < keys; k++ {
		h, err := db.GetAsync(k)
		if err != nil {
			log.Fatal(err)
		}
		handles = append(handles, h)
		if len(handles) == window {
			drain(handles)
			handles = handles[:0]
		}
	}
	drain(handles)
	asyncDur := time.Since(start)
	fmt.Printf("async readback: %d gets in %v\n", keys, asyncDur.Round(time.Millisecond))

	// The same reads through the blocking API: one operation in flight,
	// so each read waits for a wake-up of the worker and one of the
	// caller. The async API amortizes those over a whole window.
	start = time.Now()
	const blockingSample = keys / 10
	for k := uint64(0); k < blockingSample; k++ {
		if _, ok, err := db.Get(k); !ok || err != nil {
			log.Fatalf("get %d: %v %v", k, ok, err)
		}
	}
	blockingDur := time.Since(start) * (keys / blockingSample)
	fmt.Printf("blocking gets:  %d would take ~%v (%.0fx slower)\n",
		keys, blockingDur.Round(time.Millisecond),
		float64(blockingDur)/float64(asyncDur))

	// A heterogeneous batch: mixed operation kinds complete as a group.
	b := db.NewBatch()
	iGet := b.Get(42)
	iScan := b.Scan(100, 109, 0)
	b.Put(keys+1, []byte("late arrival"))
	iDel := b.Delete(7)
	if err := b.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mixed batch:    get(42)=%q scan=%d pairs deleted(7)=%v\n",
		b.Value(iGet), len(b.Pairs(iScan)), b.Found(iDel))
	b.Release()

	// Context cancellation: the call unblocks, the tree stays consistent
	// (the in-flight operation completes on the working thread).
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, _, err := db.GetContext(ctx, 42); err != nil {
		fmt.Printf("cancelled get:  %v\n", err)
	}
	if v, ok, _ := db.Get(42); ok {
		fmt.Printf("tree intact:    key 42 -> %s\n", v)
	}

	st := db.Stats()
	fmt.Printf("stats: keys=%d height=%d ops=%d admit-waits=%d buffer-hit=%.1f%%\n",
		st.NumKeys, st.Height, st.Ops, st.AdmitWaits, st.BufferHit*100)
}

// drain waits for a window of futures and recycles them.
func drain(hs []*patree.Handle) {
	for _, h := range hs {
		if err := h.Wait(); err != nil {
			log.Fatal(err)
		}
		h.Release()
	}
}
