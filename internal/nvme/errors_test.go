package nvme

import (
	"testing"
	"time"

	"github.com/patree/patree/internal/sim"
)

// runToCompletion drives the sim engine until cb has fired, probing as it
// goes, and returns the completion error observed.
func completeOne(t *testing.T, eng *sim.Engine, qp QueuePair, cmd *Command) error {
	t.Helper()
	var done bool
	var got error
	cmd.Callback = func(c Completion) { done, got = true, c.Err }
	if err := qp.Submit(cmd); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for !done && eng.Step() {
		qp.Probe(0)
	}
	qp.Probe(0)
	if !done {
		t.Fatal("command never completed")
	}
	return got
}

// TestValidateSentinels covers every command-shape sentinel: each invalid
// command must complete with its own distinct error status, and in
// particular a nil buffer must be distinguished from a short one.
func TestValidateSentinels(t *testing.T) {
	cases := []struct {
		name string
		cmd  *Command
		want error
	}{
		{"zero-blocks", &Command{Op: OpRead, LBA: 0, Blocks: 0, Buf: make([]byte, 512)}, ErrBadCommand},
		{"negative-blocks", &Command{Op: OpWrite, LBA: 0, Blocks: -1, Buf: make([]byte, 512)}, ErrBadCommand},
		{"out-of-range", &Command{Op: OpRead, LBA: 1 << 62, Blocks: 1, Buf: make([]byte, 512)}, ErrOutOfRange},
		{"lba-wraparound", &Command{Op: OpRead, LBA: ^uint64(0), Blocks: 2, Buf: make([]byte, 1024)}, ErrOutOfRange},
		{"nil-buffer", &Command{Op: OpRead, LBA: 0, Blocks: 1, Buf: nil}, ErrNilBuffer},
		{"short-buffer", &Command{Op: OpRead, LBA: 0, Blocks: 2, Buf: make([]byte, 512)}, ErrShortBuffer},
		{"empty-buffer", &Command{Op: OpWrite, LBA: 0, Blocks: 1, Buf: []byte{}}, ErrShortBuffer},
		{"valid-flush-ignores-buf", &Command{Op: OpFlush}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			d := newTestDev(eng)
			qp, err := d.AllocQueuePair(8)
			if err != nil {
				t.Fatal(err)
			}
			if got := completeOne(t, eng, qp, tc.cmd); got != tc.want {
				t.Fatalf("completion err = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestValidateSentinelsRAM runs the same table against the real-time
// backend, which shares validate but posts completions at submission.
func TestValidateSentinelsRAM(t *testing.T) {
	d := NewRAMDevice(RAMConfig{NumBlocks: 128})
	defer d.Close()
	qp, err := d.AllocQueuePair(8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cmd  *Command
		want error
	}{
		{"nil-buffer", &Command{Op: OpWrite, LBA: 0, Blocks: 1, Buf: nil}, ErrNilBuffer},
		{"short-buffer", &Command{Op: OpWrite, LBA: 0, Blocks: 2, Buf: make([]byte, 512)}, ErrShortBuffer},
		{"out-of-range", &Command{Op: OpRead, LBA: 1 << 40, Blocks: 1, Buf: make([]byte, 512)}, ErrOutOfRange},
		{"zero-blocks", &Command{Op: OpRead, LBA: 0, Blocks: 0, Buf: make([]byte, 512)}, ErrBadCommand},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			tc.cmd.Callback = func(c Completion) { done <- c.Err }
			if err := qp.Submit(tc.cmd); err != nil {
				t.Fatalf("submit: %v", err)
			}
			deadline := time.After(5 * time.Second)
			for {
				qp.Probe(0)
				select {
				case got := <-done:
					if got != tc.want {
						t.Fatalf("completion err = %v, want %v", got, tc.want)
					}
					return
				case <-deadline:
					t.Fatal("command never completed")
				default:
					time.Sleep(100 * time.Microsecond)
				}
			}
		})
	}
}

// TestLifecycleSentinels covers the queue-pair and device lifecycle errors:
// ErrQueueFull, ErrQueueFreed, ErrClosed, ErrTooManyQP and nil-command
// ErrBadCommand, which are returned synchronously from Submit/Alloc.
func TestLifecycleSentinels(t *testing.T) {
	eng := sim.NewEngine()
	d := NewSimDevice(eng, SimConfig{Seed: 1, MaxQueuePairs: 2})
	qp, err := d.AllocQueuePair(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := qp.Submit(nil); err != ErrBadCommand {
		t.Fatalf("nil command: err = %v, want ErrBadCommand", err)
	}
	if err := qp.Submit(&Command{Op: OpRead, LBA: 0, Blocks: 1, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	if err := qp.Submit(&Command{Op: OpRead, LBA: 1, Blocks: 1, Buf: buf}); err != ErrQueueFull {
		t.Fatalf("full ring: err = %v, want ErrQueueFull", err)
	}
	if _, err := d.AllocQueuePair(1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocQueuePair(1); err != ErrTooManyQP {
		t.Fatalf("alloc beyond limit: err = %v, want ErrTooManyQP", err)
	}
	eng.RunFor(time.Millisecond)
	qp.Probe(0)
	if err := qp.Free(); err != nil {
		t.Fatal(err)
	}
	if err := qp.Submit(&Command{Op: OpFlush}); err != ErrQueueFreed {
		t.Fatalf("freed pair: err = %v, want ErrQueueFreed", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocQueuePair(1); err != ErrClosed {
		t.Fatalf("alloc on closed device: err = %v, want ErrClosed", err)
	}
}

// TestTransientSentinelsDistinct pins down the transient command statuses
// introduced for fault injection: they must be distinct sentinels so retry
// classification can match them with errors.Is-style identity.
func TestTransientSentinelsDistinct(t *testing.T) {
	sentinels := []error{
		ErrQueueFull, ErrOutOfRange, ErrBadCommand, ErrClosed, ErrTooManyQP,
		ErrNilBuffer, ErrShortBuffer, ErrQueueFreed, ErrMedia, ErrTimeout,
	}
	seen := make(map[error]string)
	for _, e := range sentinels {
		if e == nil || e.Error() == "" {
			t.Fatalf("sentinel %v has empty message", e)
		}
		if prev, dup := seen[e]; dup {
			t.Fatalf("sentinel %q duplicates %q", e.Error(), prev)
		}
		seen[e] = e.Error()
	}
}
