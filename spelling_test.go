package patree

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/patree/patree/internal/trace"
)

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
					// After Close every spelling must refuse each kind.
					closed := func(t *testing.T, db *DB, _ map[uint64][]byte) {
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
					}
					_, transcript := runOracle(t, stream, dbTarget{shards: shards, devices: 1, buffer: 1024, sp: sp, along: conc, check: closed})
					if reference == nil {
						reference = transcript
					} else if !reflect.DeepEqual(transcript, reference) {
						t.Fatalf("seed %d: transcript differs from the first spelling's", seed)
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
