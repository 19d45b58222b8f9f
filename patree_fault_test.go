package patree

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/patree/patree/internal/fault"
	"github.com/patree/patree/internal/nvme"
)

// faultDB opens a weak-persistence DB, journaled or not, over a RAM
// device wrapped with fault injection. RAMDevice does not expose its image, so the torn-write and
// crash classes stay off; error and timeout injection is what these
// tests exercise end to end through the public API.
func faultDB(t *testing.T, journal bool, probs fault.Probs, retries int) (*DB, *fault.Device) {
	t.Helper()
	inner := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})
	// Open formats the device; arm the fault classes only afterwards so
	// even a WriteErr=1 configuration gets a valid tree to kill.
	fdev := fault.New(inner, fault.Config{Seed: 0xdb})
	db, err := Open(Options{
		Device:       fdev,
		Persistence:  Weak,
		Journal:      journal,
		MaxIORetries: retries,
		BufferPages:  256,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fdev.SetProbs(probs)
	return db, fdev
}

// TestFaultRetriesAbsorbTransientErrors drives a journaled workload
// through a device that fails commands constantly; with a generous
// retry budget every operation must still succeed, and the retry
// counters must show the absorbed failures.
func TestFaultRetriesAbsorbTransientErrors(t *testing.T) {
	db, _ := faultDB(t, true, fault.Probs{ReadErr: 0.05, WriteErr: 0.05, Timeout: 0.02}, 16)
	defer db.Close()
	const n = 400
	for i := uint64(1); i <= n; i++ {
		if err := db.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := uint64(1); i <= n; i++ {
		v, ok, err := db.Get(i)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d: v=%q ok=%v err=%v", i, v, ok, err)
		}
	}
	st := db.Stats()
	if st.IOErrors == 0 || st.IORetries == 0 {
		t.Fatalf("fault injection left no trace in stats: %+v", st)
	}
	if st.JournalAppends == 0 {
		t.Fatalf("journal enabled but no appends: %+v", st)
	}
}

// TestFaultExhaustedRetriesFailDevice pins the terminal state: when
// every write fails and the budget runs out, operations return
// ErrDeviceFailed and Close still shuts down cleanly.
func TestFaultExhaustedRetriesFailDevice(t *testing.T) {
	db, _ := faultDB(t, true, fault.Probs{WriteErr: 1}, 2)
	var failed error
	for i := uint64(1); i <= 50; i++ {
		if err := db.Put(i, []byte("x")); err != nil {
			failed = err
			break
		}
	}
	if !errors.Is(failed, ErrDeviceFailed) {
		t.Fatalf("puts on a dead device returned %v, want ErrDeviceFailed", failed)
	}
	// Everything after the terminal transition fails fast with the same
	// error, reads included.
	if _, _, err := db.Get(1); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("get after failure: %v, want ErrDeviceFailed", err)
	}
	// Close drains the pipeline instead of wedging; its final sync
	// reports the device failure.
	if err := db.Close(); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("close after failure: %v, want ErrDeviceFailed", err)
	}
}

// TestFaultWeakSyncRetriesTransient pins that an unjournaled Sync draws
// on the same retry budget and counters as every other device command:
// transient statuses on its page, meta and flush commands are retried
// and counted, and the sync succeeds.
func TestFaultWeakSyncRetriesTransient(t *testing.T) {
	db, fdev := faultDB(t, false, fault.Probs{}, 64)
	defer db.Close()
	const n = 400
	for i := uint64(1); i <= n; i++ {
		if err := db.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	before := db.Stats()
	fdev.SetProbs(fault.Probs{Timeout: 0.3})
	if err := db.Sync(); err != nil {
		t.Fatalf("sync over a device timing out 30%% of commands: %v", err)
	}
	fdev.SetProbs(fault.Probs{})
	st := db.Stats()
	injected := fdev.Counts().Timeouts
	if injected == 0 {
		t.Fatal("no timeout injected: the sync issued too few commands to exercise the retry path")
	}
	if got := st.IOErrors - before.IOErrors; got != injected {
		t.Fatalf("IOErrors moved by %d, %d timeouts injected", got, injected)
	}
	if got := st.IORetries - before.IORetries; got != injected {
		t.Fatalf("IORetries moved by %d, %d timeouts injected", got, injected)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok, err := db.Get(i); err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d after sync: v=%q ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestFaultWeakSyncExhaustedRetriesFailDevice is the other end: once an
// unjournaled Sync has spent its budget the tree enters the failed state
// and the sync reports ErrDeviceFailed, not the raw device status.
func TestFaultWeakSyncExhaustedRetriesFailDevice(t *testing.T) {
	db, fdev := faultDB(t, false, fault.Probs{}, 2)
	for i := uint64(1); i <= 50; i++ {
		if err := db.Put(i, []byte("x")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	fdev.SetProbs(fault.Probs{Timeout: 1})
	if err := db.Sync(); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("sync on a dead device returned %v, want ErrDeviceFailed", err)
	}
	// Errors reaped after the budget ran out (the snapshot's other writes
	// were already in flight) count too, so IOErrors has only a floor.
	if st := db.Stats(); st.IORetries != 2 || st.IOErrors < 3 {
		t.Fatalf("budget of 2: IORetries=%d IOErrors=%d, want 2 and at least 3", st.IORetries, st.IOErrors)
	}
	if err := db.Put(1, []byte("y")); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("put after failure: %v, want ErrDeviceFailed", err)
	}
	if err := db.Close(); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("close after failure: %v, want ErrDeviceFailed", err)
	}
}

// TestFaultRaceAsyncHammer hammers the async API from many goroutines
// while faults fire, with Close racing the tail of the workload. Run
// under -race. Every handle must resolve — with nil, ErrClosed, or
// ErrDeviceFailed — and none may leak or deadlock.
func TestFaultRaceAsyncHammer(t *testing.T) {
	db, _ := faultDB(t, true, fault.Probs{ReadErr: 0.02, WriteErr: 0.02, Timeout: 0.01}, 16)
	const (
		workers = 8
		opsEach = 300
	)
	var resolved atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsEach; i++ {
				key := 1 + uint64(rng.Intn(512))
				var h *Handle
				var err error
				if rng.Intn(2) == 0 {
					h, err = db.PutAsync(key, []byte(fmt.Sprintf("w%d-%d", w, i)))
				} else {
					h, err = db.GetAsync(key)
				}
				if err != nil {
					// Admission refused (DB closed under us): still resolved.
					if !errors.Is(err, ErrClosed) {
						t.Errorf("admit: %v", err)
					}
					resolved.Add(1)
					continue
				}
				werr := h.Wait()
				if werr != nil && !errors.Is(werr, ErrClosed) && !errors.Is(werr, ErrDeviceFailed) {
					t.Errorf("handle resolved with unexpected error: %v", werr)
				}
				h.Release()
				resolved.Add(1)
			}
		}(w)
	}
	// Close while roughly half the workload is still in flight.
	closeErr := make(chan error, 1)
	go func() { closeErr <- db.Close() }()
	wg.Wait()
	if err := <-closeErr; err != nil && !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("close: %v", err)
	}
	if got, want := resolved.Load(), uint64(workers*opsEach); got != want {
		t.Fatalf("%d of %d handles resolved", got, want)
	}
}
