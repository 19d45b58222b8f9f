package patree

import (
	"fmt"
	"sync"
	"testing"

	"github.com/patree/patree/internal/nvme"
)

func TestOpenPutGetClose(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(42, []byte("answer")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get(42)
	if err != nil || !ok || string(v) != "answer" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if _, ok, _ := db.Get(43); ok {
		t.Fatal("phantom key")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("double close errored:", err)
	}
	if err := db.Put(1, []byte("x")); err != ErrClosed {
		t.Fatalf("put after close: %v", err)
	}
}

func TestCRUDAndScan(t *testing.T) {
	var stream [][]BatchOp
	for i := uint64(0); i < 500; i++ {
		stream = append(stream, []BatchOp{{Kind: OpPut, Key: i * 2, Value: []byte(fmt.Sprintf("v%d", i*2))}})
	}
	stream = append(stream, []BatchOp{{Kind: OpUpdate, Key: 10, Value: []byte("new")}},
		[]BatchOp{{Kind: OpUpdate, Key: 11, Value: []byte("x")}}, // absent: not found
		[]BatchOp{{Kind: OpDelete, Key: 20}}, []BatchOp{{Kind: OpScan, Key: 8, End: 30}})
	runOracle(t, stream, dbTarget{shards: 1, devices: 1, sp: mixed,
		check: func(t *testing.T, db *DB, _ map[uint64][]byte) {
			if st := db.Stats(); st.NumKeys != 499 || st.Ops == 0 {
				t.Fatalf("stats: %+v", st)
			}
		}})
}

func TestConcurrentClients(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const goroutines = 8
	const per = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := uint64(g*100000 + i)
				if err := db.Put(k, []byte("v")); err != nil {
					errs <- err
					return
				}
				if _, ok, err := db.Get(k); !ok || err != nil {
					errs <- fmt.Errorf("readback %d: %v %v", k, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.Stats().NumKeys; got != goroutines*per {
		t.Fatalf("numKeys = %d", got)
	}
}

// TestPersistenceAcrossReopen: Close syncs a weak DB, so what it held
// in its buffer reads back after a reopen.
func TestPersistenceAcrossReopen(t *testing.T) {
	runOracle(t, putStream(300), dbTarget{shards: 1, devices: 1, weak: true, sp: mixed, reopen: true})
}

func TestFormatWipes(t *testing.T) {
	dev := nvme.NewRAMDevice(nvme.RAMConfig{})
	defer dev.Close()
	db, _ := Open(Options{Device: dev})
	db.Put(1, []byte("x"))
	db.Close()
	db2, err := Open(Options{Device: dev, Format: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, ok, _ := db2.Get(1); ok {
		t.Fatal("format did not wipe")
	}
}

func TestValueTooLarge(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if err := db.Put(1, make([]byte, MaxValueSize+1)); err == nil {
		t.Fatal("oversized put accepted")
	}
	if err := db.Put(1, make([]byte, MaxValueSize)); err != nil {
		t.Fatal(err)
	}
}
