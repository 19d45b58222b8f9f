package patree

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// This file is the concurrent-reader battery: reads from many goroutines
// racing writes through the admission pipeline — oracle-checked
// reader/writer races across shard counts, a linearizability check over
// per-key registers, a -race hammer of the blocking spellings, and a fuzz
// target with a reader riding alongside. Every failure message carries
// the seed that reproduces it.

// encVer encodes (key, version) as a value so every read can verify which
// write it observed; decVer reverses it.
func encVer(key, ver uint64) []byte { return []byte(fmt.Sprintf("%d.%d", key, ver)) }

func decVer(t *testing.T, label string, key uint64, v []byte) (uint64, bool) {
	var k, ver uint64
	if n, err := fmt.Sscanf(string(v), "%d.%d", &k, &ver); n != 2 || err != nil || k != key {
		t.Errorf("%s: key %d returned value %q, not one written for it", label, key, v)
		return 0, false
	}
	return ver, true
}

// readAlong keeps one goroutine reading keys 1..1500 (a Get every turn,
// a Scan every sixteenth) until the returned stop, which cleanup also
// runs, is called. Its reads race whatever the test drives meanwhile;
// any error fails the test.
func readAlong(t testing.TB, db *DB) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-done:
				return
			default:
			}
			runtime.Gosched()
			_, _, err := db.Get(1 + i%1500)
			if err == nil && i%16 == 0 {
				_, err = db.Scan(i%1500, i%1500+32, 8)
			}
			if err != nil {
				t.Errorf("read alongside: %v", err)
				return
			}
		}
	}()
	var once sync.Once
	stop = func() { once.Do(func() { close(done); wg.Wait() }) }
	t.Cleanup(stop)
	return stop
}

// TestConcurrentReadersOracle races reader goroutines and a scanner
// against a single writer across shard counts, checking every read
// against the acked-version oracle:
//
//   - acked-write visibility: a read that begins after version v of a key
//     was acknowledged must observe version >= v;
//   - monotonic reads: one goroutine's successive reads of a key never go
//     backward;
//   - no phantom values: every value decodes to its own key and to a
//     version the writer actually issued.
//
// Writers only add versions (no deletes), so the invariants are exact.
func TestConcurrentReadersOracle(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			readersOracle(t, shards, 256, 1200, 3, 42)
		})
	}
}

// readersOracle races a single writer (writes Puts over keys 1..space,
// each a new version of its key) against readers Get goroutines and one
// scanner, then checks every key's final version.
func readersOracle(t *testing.T, shards, space, writes, readers int, seed int64) {
	db := openTest(t, Options{Shards: shards, BufferPages: 1024})

	acked := make([]atomic.Uint64, space+1)  // highest acknowledged version per key
	issued := make([]atomic.Uint64, space+1) // highest version handed to Put per key
	var done atomic.Bool

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single writer: versions per key are unique and ordered
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < writes; i++ {
			key := 1 + uint64(rng.Intn(space))
			ver := issued[key].Add(1)
			if err := db.Put(key, encVer(key, ver)); err != nil {
				t.Errorf("seed=%d shards=%d: put %d v%d: %v", seed, shards, key, ver, err)
				return
			}
			acked[key].Store(ver)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(r) + 1))
			label := fmt.Sprintf("seed=%d shards=%d reader=%d", seed, shards, r)
			lastSeen := make([]uint64, space+1)
			for !done.Load() {
				runtime.Gosched() // keep spinning readers from starving the workers
				key := 1 + uint64(rng.Intn(space))
				lo := acked[key].Load() // acked before the read began
				v, found, err := db.Get(key)
				if err != nil || (!found && lo > 0) {
					t.Errorf("%s: get %d = found %v, %v after version %d was acked", label, key, found, err, lo)
					return
				}
				if !found {
					continue
				}
				ver, ok := decVer(t, label, key, v)
				if !ok {
					return
				}
				if hi := issued[key].Load(); ver < lo || ver > hi || ver < lastSeen[key] {
					t.Errorf("%s: key %d read version %d: acked %d before the read, issued %d, last seen %d", label, key, ver, lo, hi, lastSeen[key])
					return
				}
				lastSeen[key] = ver
			}
		}(r)
	}

	// One scanner rides along, checking order, key/value agreement
	// and acked-write visibility of whole ranges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 100))
		label := fmt.Sprintf("seed=%d shards=%d scanner", seed, shards)
		ackedAtStart := make([]uint64, space+1)
		for !done.Load() {
			runtime.Gosched()
			lo := 1 + uint64(rng.Intn(space))
			hi := lo + uint64(rng.Intn(24))
			for k := lo; k <= hi && k <= uint64(space); k++ {
				ackedAtStart[k] = acked[k].Load()
			}
			pairs, err := db.Scan(lo, hi, 0)
			if err != nil {
				t.Errorf("%s: scan [%d,%d]: %v", label, lo, hi, err)
				return
			}
			seen := map[uint64]uint64{}
			for i, kv := range pairs {
				if (i > 0 && kv.Key <= pairs[i-1].Key) || kv.Key < lo || kv.Key > hi {
					t.Errorf("%s: scan [%d,%d] returned key %d out of order or range", label, lo, hi, kv.Key)
					return
				}
				ver, ok := decVer(t, label, kv.Key, kv.Value)
				if !ok {
					return
				}
				seen[kv.Key] = ver
			}
			for k := lo; k <= hi && k <= uint64(space); k++ {
				if want := ackedAtStart[k]; want > 0 && seen[k] < want {
					t.Errorf("%s: scan [%d,%d] key %d at version %d, but %d acked before the scan", label, lo, hi, k, seen[k], want)
					return
				}
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}
	// Quiesced: every key must read back at exactly its final acked
	// version.
	for key := uint64(1); key <= uint64(space); key++ {
		want := acked[key].Load()
		if want == 0 {
			continue
		}
		v, found, err := db.Get(key)
		if err != nil || !found {
			t.Fatalf("seed=%d shards=%d: final get %d: %q/%v err=%v want v%d", seed, shards, key, v, found, err, want)
		}
		if ver, ok := decVer(t, "final", key, v); ok && ver != want {
			t.Fatalf("seed=%d shards=%d: final get %d = version %d, want %d", seed, shards, key, ver, want)
		}
	}
}

// TestConcurrentReadsMatchPipeline replays the randomized single-caller
// oracle stream of the sharded suite while readAlong reads the same keys:
// with reads racing it, every answer of the stream — deletes, absent keys
// and limited scans included — must still equal the flat-map model.
func TestConcurrentReadsMatchPipeline(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runOracle(t, randomStream(int64(7*shards+1), 1500), dbTarget{shards: shards, devices: 1, buffer: 1024, sp: mixed, along: true})
		})
	}
}

// TestConcurrentReadLinearizability is the per-key register check on a
// hot key space: with a single writer issuing uniquely-versioned writes,
// a read history is linearizable iff every read of key k returns a
// version within [acked-before-invoke, issued-after-return] and each
// goroutine's reads are monotonic, in the style of the Wing & Gong
// single-register checker. Sixty-four keys under six readers keep every
// key contended.
func TestConcurrentReadLinearizability(t *testing.T) {
	readersOracle(t, 4, 64, 3000, 6, 1337)
}

// TestConcurrentReadRaceHammer is the -race exercise for the blocking
// spellings: Get, Scan, batched Gets, Put, Delete and the observability
// calls (Stats, FormatMetrics, WriteTrace) from many goroutines over 4
// shards, then a tail of Gets racing Close that must each see a value,
// an absence or ErrClosed. The race detector and the DB's own checks are
// the oracle.
func TestConcurrentReadRaceHammer(t *testing.T) {
	db, err := Open(Options{DeviceBlocks: 1 << 16, Shards: 4, BufferPages: 2048, Trace: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				key := 1 + uint64(rng.Intn(512))
				var err error
				switch rng.Intn(16) {
				case 0, 1, 2, 3:
					err = db.Put(key, encVer(key, uint64(i)))
				case 4, 5, 6:
					_, _, err = db.Get(key)
				case 7, 8:
					_, err = db.Scan(key, key+64, 16)
				case 9, 10:
					_, err = db.Delete(key)
				case 11, 12:
					b := db.NewBatch()
					for j := uint64(0); j < 4; j++ {
						b.Get(key + j)
					}
					if err = b.Commit(); err == nil {
						err = b.Wait()
					}
					b.Release()
				case 13, 14:
					_ = db.Stats()
					_ = FormatMetrics(db.Metrics())
				default:
					err = db.WriteTrace(io.Discard)
				}
				if err != nil {
					t.Errorf("goroutine %d op %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, _, err := db.Get(uint64(i)); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("get during close: %v", err)
					return
				}
			}
		}()
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
}

// FuzzConcurrentReadOps is FuzzShardedOps with readAlong racing the
// fuzzed stream: the foreground checks stay exact (single-caller
// read-your-writes) while the background reads surface races under
// -race and any error they meet.
func FuzzConcurrentReadOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{5, 200, 3, 5, 200, 3, 1, 9, 9, 2, 9, 9})
	f.Add([]byte{0, 7, 13, 4, 99, 21, 0, 7, 13, 4, 99, 21, 0, 7, 13, 4, 99, 21, 0, 7, 13, 4, 99, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOracle(t, data, 400, dbTarget{shards: 4, devices: 1, buffer: 512, sp: mixed, along: true, reopen: true})
	})
}
