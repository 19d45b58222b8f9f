package patree

import (
	"testing"
	"time"
)

// TestIdleWorkerParks pins the idle rule on the wall-clock environment:
// a worker with nothing in flight parks between blocking calls (and is
// woken by the next admission) instead of busy-polling for a safety
// interval after each one. Under GOMAXPROCS=1 it also shows the worker
// and the caller sharing one P.
func TestIdleWorkerParks(t *testing.T) {
	db := openTest(t, Options{})
	if err := db.Put(7, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	get := func() {
		t.Helper()
		if v, ok, err := db.Get(7); err != nil || !ok || string(v) != "warm" {
			t.Fatalf("Get(7) = %q %v %v", v, ok, err)
		}
	}
	get() // the key is now resident: the Gets below issue no I/O
	before := db.Stats()
	const n = 50
	for i := 0; i < n; i++ {
		get()
		time.Sleep(100 * time.Microsecond)
	}
	after := db.Stats()
	if spin := after.IdleSpinTime - before.IdleSpinTime; spin != 0 {
		t.Errorf("idle worker busy-polled for %v of accounted CPU over %d cached Gets, want 0", spin, n)
	}
	if yields := after.Yields - before.Yields; yields < n {
		t.Errorf("worker yielded %d times over %d paused Gets, want at least one per Get", yields, n)
	}
}

// TestJournaledPutReapsAtOnce pins polled mode on the wall-clock
// environment: the RAM device completes a command inside Submit, so the
// worker reaps a journaled Put's log block on the probe after it was
// issued, never burning an idle pass beside it waiting for a model to
// predict the completion or a backstop to fire.
func TestJournaledPutReapsAtOnce(t *testing.T) {
	db := openTest(t, Options{Journal: true})
	before := db.Stats()
	const n = 50
	for i := uint64(0); i < n; i++ {
		if err := db.Put(i, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	after := db.Stats()
	if blocks := after.JournalBlockWrites - before.JournalBlockWrites; blocks < n {
		t.Fatalf("%d WAL block writes for %d sequential Puts, want one per Put at least", blocks, n)
	}
	if spin := after.IdleSpinTime - before.IdleSpinTime; spin != 0 {
		t.Errorf("worker busy-polled for %v of accounted CPU over %d journaled Puts, want 0", spin, n)
	}
}
