package patree_test

import (
	"strings"
	"testing"

	patree "github.com/patree/patree"
)

// mustPanic runs f and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want one mentioning %q)", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

// TestBatchAccessorGuards pins the descriptive panics on Batch misuse:
// every accessor rejects out-of-range indexes and reads before Commit,
// staging after Commit is refused, and the commit lifecycle is
// single-shot. Silent misbehavior here would surface as another
// operation's result being read — the panic is the contract.
func TestBatchAccessorGuards(t *testing.T) {
	db, err := patree.Open(patree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	b := db.NewBatch()
	gi := b.Get(1)
	pi := b.Put(2, []byte("v"))
	if gi != 0 || pi != 1 {
		t.Fatalf("staged indexes = %d, %d; want 0, 1", gi, pi)
	}

	// Reads before Commit would block on results that can never arrive.
	mustPanic(t, "before Commit", func() { b.Err(gi) })
	mustPanic(t, "before Commit", func() { b.Found(gi) })
	mustPanic(t, "before Commit", func() { b.Value(gi) })
	mustPanic(t, "before Commit", func() { b.Pairs(gi) })
	mustPanic(t, "before Commit", func() { b.Wait() })
	// An op of no kind would reach the backend as nothing it can run.
	mustPanic(t, "invalid op kind", func() { b.Stage(patree.BatchOp{}) })
	mustPanic(t, "invalid op kind", func() { b.Stage(patree.BatchOp{Kind: patree.OpSync + 1}) })

	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}

	// Out-of-range indexes would read another operation's slot.
	mustPanic(t, "out of range", func() { b.Err(-1) })
	mustPanic(t, "out of range", func() { b.Err(2) })
	mustPanic(t, "out of range", func() { b.Value(99) })

	// The batch is sealed once committed.
	mustPanic(t, "after Commit", func() { b.Put(3, []byte("late")) })
	mustPanic(t, "after Commit", func() { b.Get(3) })
	mustPanic(t, "Commit called twice", func() { b.Commit() })
	mustPanic(t, "TryCommit after Commit", func() { b.TryCommit() })

	// Valid indexes still read fine after the guards fired.
	if b.Err(gi) != nil || b.Err(pi) != nil {
		t.Fatal("committed ops should have succeeded")
	}

	b.Release()
	// After Release the handles are gone; any index is out of range.
	mustPanic(t, "out of range", func() { b.Err(0) })
}

// TestHandleUseAfterRelease pins the Handle guards: a released handle
// fails loudly instead of reading a recycled slot.
func TestHandleUseAfterRelease(t *testing.T) {
	db, err := patree.Open(patree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	h, err := db.PutAsync(7, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	h.Release()
	mustPanic(t, "after Release", func() { h.Wait() })
	mustPanic(t, "after Release", func() { h.Found() })
	mustPanic(t, "after Release", func() { h.Value() })
	mustPanic(t, "after Release", func() { h.Pairs() })
}
