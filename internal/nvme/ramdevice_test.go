package nvme

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/patree/patree/internal/sim"
)

func TestRAMReadWriteRoundTrip(t *testing.T) {
	d := NewRAMDevice(RAMConfig{})
	defer d.Close()
	qp, err := d.AllocQueuePair(64)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i * 7)
	}
	done := make(chan struct{})
	qp.Submit(&Command{Op: OpWrite, LBA: 10, Blocks: 2, Buf: src,
		Callback: func(c Completion) {
			if c.Err != nil {
				t.Errorf("write err: %v", c.Err)
			}
			close(done)
		}})
	waitProbe(t, qp, done)

	dst := make([]byte, 1024)
	done2 := make(chan struct{})
	qp.Submit(&Command{Op: OpRead, LBA: 10, Blocks: 2, Buf: dst,
		Callback: func(c Completion) {
			if c.Err != nil {
				t.Errorf("read err: %v", c.Err)
			}
			close(done2)
		}})
	waitProbe(t, qp, done2)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

// waitProbe polls the queue pair until ch closes or a timeout elapses.
func waitProbe(t *testing.T, qp QueuePair, ch chan struct{}) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		qp.Probe(0)
		select {
		case <-ch:
			return
		case <-deadline:
			t.Fatal("timed out waiting for completion")
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func TestRAMWriteSnapshot(t *testing.T) {
	d := NewRAMDevice(RAMConfig{})
	defer d.Close()
	qp, _ := d.AllocQueuePair(16)
	buf := make([]byte, 512)
	buf[0] = 1
	done := make(chan struct{})
	qp.Submit(&Command{Op: OpWrite, LBA: 0, Blocks: 1, Buf: buf,
		Callback: func(Completion) { close(done) }})
	buf[0] = 2 // must not affect the stored block
	waitProbe(t, qp, done)

	out := make([]byte, 512)
	done2 := make(chan struct{})
	qp.Submit(&Command{Op: OpRead, LBA: 0, Blocks: 1, Buf: out,
		Callback: func(Completion) { close(done2) }})
	waitProbe(t, qp, done2)
	if out[0] != 1 {
		t.Fatalf("stored %d, want snapshot 1", out[0])
	}
}

func TestRAMErrorCompletion(t *testing.T) {
	d := NewRAMDevice(RAMConfig{NumBlocks: 100})
	defer d.Close()
	qp, _ := d.AllocQueuePair(16)
	buf := make([]byte, 512)
	var gotErr error
	done := make(chan struct{})
	qp.Submit(&Command{Op: OpRead, LBA: 100, Blocks: 1, Buf: buf,
		Callback: func(c Completion) { gotErr = c.Err; close(done) }})
	waitProbe(t, qp, done)
	if gotErr != ErrOutOfRange {
		t.Fatalf("err = %v, want ErrOutOfRange", gotErr)
	}
}

func TestRAMManyConcurrentCommands(t *testing.T) {
	d := NewRAMDevice(RAMConfig{})
	defer d.Close()
	qp, _ := d.AllocQueuePair(256)
	const n = 200
	completed := 0
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, 512)
		bufs[i][0] = byte(i)
		if err := qp.Submit(&Command{Op: OpWrite, LBA: uint64(i), Blocks: 1, Buf: bufs[i],
			Callback: func(Completion) { completed++ }}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for completed < n {
		qp.Probe(0)
		if time.Now().After(deadline) {
			t.Fatalf("completed %d of %d", completed, n)
		}
	}
	if qp.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", qp.Outstanding())
	}
}

func TestRAMCloseStopsSubmission(t *testing.T) {
	d := NewRAMDevice(RAMConfig{})
	qp, _ := d.AllocQueuePair(16)
	d.Close()
	err := qp.Submit(&Command{Op: OpFlush})
	if err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := d.AllocQueuePair(8); err != ErrClosed {
		t.Fatalf("alloc err = %v, want ErrClosed", err)
	}
	// Double close is fine.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpcodeString(t *testing.T) {
	if OpRead.String() != "READ" || OpWrite.String() != "WRITE" || OpFlush.String() != "FLUSH" {
		t.Fatal("opcode strings wrong")
	}
	if Opcode(9).String() != "Opcode(9)" {
		t.Fatal("unknown opcode string wrong")
	}
}

// TestRAMCallbackResubmits chains commands: each completion callback,
// running inside Probe, submits the next one on the same pair. One Probe
// reaps only what was posted before it was called.
func TestRAMCallbackResubmits(t *testing.T) {
	d := NewRAMDevice(RAMConfig{})
	defer d.Close()
	qp, _ := d.AllocQueuePair(4)
	buf := make([]byte, 512)
	const chain = 100
	done := 0
	var cmd Command
	cmd = Command{Op: OpWrite, Blocks: 1, Buf: buf, Callback: func(c Completion) {
		if c.Err != nil {
			t.Fatalf("link %d: %v", done, c.Err)
		}
		if done++; done < chain {
			cmd.LBA = uint64(done)
			if err := qp.Submit(&cmd); err != nil {
				t.Fatalf("resubmit %d from callback: %v", done, err)
			}
		}
	}}
	if err := qp.Submit(&cmd); err != nil {
		t.Fatal(err)
	}
	for probes := 1; done < chain; probes++ {
		if n := qp.Probe(0); n != 1 {
			t.Fatalf("probe %d reaped %d, want the one command posted before it", probes, n)
		}
	}
	if qp.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after the chain", qp.Outstanding())
	}
}

// TestRAMOutstandingUntilReaped: every accepted command holds a ring slot
// until Probe reaps it, malformed ones included, and a full ring refuses.
func TestRAMOutstandingUntilReaped(t *testing.T) {
	d := NewRAMDevice(RAMConfig{NumBlocks: 64})
	defer d.Close()
	qp, _ := d.AllocQueuePair(4)
	buf := make([]byte, 512)
	var errs []error
	cb := func(c Completion) { errs = append(errs, c.Err) }
	for _, c := range []*Command{
		{Op: OpWrite, LBA: 1, Blocks: 1, Buf: buf, Callback: cb},
		{Op: OpRead, LBA: 64, Blocks: 1, Buf: buf, Callback: cb},
		{Op: OpRead, LBA: 0, Blocks: 0, Buf: buf, Callback: cb},
		{Op: OpFlush, Callback: cb},
	} {
		if err := qp.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if got := qp.Outstanding(); got != 4 {
		t.Fatalf("outstanding = %d, want 4", got)
	}
	if err := qp.Submit(&Command{Op: OpFlush}); err != ErrQueueFull {
		t.Fatalf("full ring: err = %v, want ErrQueueFull", err)
	}
	if n := qp.Probe(3); n != 3 || qp.Outstanding() != 1 {
		t.Fatalf("Probe(3) reaped %d, %d outstanding", n, qp.Outstanding())
	}
	if n := qp.Probe(0); n != 1 || qp.Outstanding() != 0 {
		t.Fatalf("Probe(0) reaped %d, %d outstanding", n, qp.Outstanding())
	}
	want := []error{nil, ErrOutOfRange, ErrBadCommand, nil}
	for i := range want {
		if errs[i] != want[i] {
			t.Fatalf("statuses %v, want %v", errs, want)
		}
	}
}

// TestRAMFreeAndClose: a freed pair refuses with ErrQueueFreed; a closed
// device refuses submissions and allocations with ErrClosed while what
// was posted before still reaps; a second Close is a no-op.
func TestRAMFreeAndClose(t *testing.T) {
	d := NewRAMDevice(RAMConfig{})
	freed, _ := d.AllocQueuePair(8)
	if err := freed.Free(); err != nil {
		t.Fatal(err)
	}
	if err := freed.Submit(&Command{Op: OpFlush}); err != ErrQueueFreed {
		t.Fatalf("freed pair: err = %v, want ErrQueueFreed", err)
	}
	qp, _ := d.AllocQueuePair(8)
	reaped := false
	if err := qp.Submit(&Command{Op: OpFlush, Callback: func(Completion) { reaped = true }}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := qp.Submit(&Command{Op: OpFlush}); err != ErrClosed {
		t.Fatalf("closed device: err = %v, want ErrClosed", err)
	}
	if _, err := d.AllocQueuePair(8); err != ErrClosed {
		t.Fatalf("alloc on closed device: err = %v, want ErrClosed", err)
	}
	if n := qp.Probe(0); n != 1 || !reaped || qp.Outstanding() != 0 {
		t.Fatalf("after Close: reaped %d (callback %v), %d outstanding", n, reaped, qp.Outstanding())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRAMRoundTripAllocs: once a block exists, a Submit + Probe round trip
// of a read or of an overwrite allocates nothing.
func TestRAMRoundTripAllocs(t *testing.T) {
	d := NewRAMDevice(RAMConfig{})
	defer d.Close()
	qp, _ := d.AllocQueuePair(8)
	d.WriteAt(7, make([]byte, 1024))
	buf := make([]byte, 1024)
	reaped := 0
	cb := func(Completion) { reaped++ }
	for _, op := range []Opcode{OpRead, OpWrite} {
		cmd := &Command{Op: op, LBA: 7, Blocks: 2, Buf: buf, Callback: cb}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := qp.Submit(cmd); err != nil {
				t.Fatal(err)
			}
			qp.Probe(0)
		})
		if allocs != 0 {
			t.Errorf("%v round trip allocates %.2f", op, allocs)
		}
	}
	if reaped != 2*1001 {
		t.Fatalf("reaped %d of %d", reaped, 2*1001)
	}
}

// TestSimWriteAtAllocs: on the simulated device too, an overwrite of a
// written block and a read allocate nothing; the block store keeps one
// slice per extent, not one per block.
func TestSimWriteAtAllocs(t *testing.T) {
	d := NewSimDevice(sim.NewEngine(), SimConfig{Seed: 1})
	buf := make([]byte, 1024)
	d.WriteAt(7, buf)
	if allocs := testing.AllocsPerRun(1000, func() { d.WriteAt(7, buf) }); allocs != 0 {
		t.Errorf("overwrite allocates %.2f", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { d.ReadAt(7, buf) }); allocs != 0 {
		t.Errorf("read allocates %.2f", allocs)
	}
}

// TestRAMConcurrentPairs is a -race hammer: four goroutines each own a
// queue pair on their own partition of one device and write, read back
// and verify, while another goroutine reads the image directly.
func TestRAMConcurrentPairs(t *testing.T) {
	d := NewRAMDevice(RAMConfig{NumBlocks: 4 * 256})
	defer d.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		buf := make([]byte, 512)
		for {
			select {
			case <-stop:
				return
			default:
				d.ReadAt(0, buf)
				d.ImageSnapshot()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		p, err := NewPartition(d, uint64(g)*256, 256)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qp, err := p.AllocQueuePair(32)
			if err != nil {
				t.Error(err)
				return
			}
			defer qp.Free()
			src, dst := make([]byte, 512), make([]byte, 512)
			ok := true
			for i := 0; i < 300; i++ {
				lba := uint64(i % 256)
				src[0], src[511] = byte(g), byte(i)
				qp.Submit(&Command{Op: OpWrite, LBA: lba, Blocks: 1, Buf: src})
				qp.Submit(&Command{Op: OpRead, LBA: lba, Blocks: 1, Buf: dst,
					Callback: func(c Completion) { ok = ok && c.Err == nil && bytes.Equal(dst, src) }})
				for qp.Outstanding() > 0 {
					qp.Probe(0)
				}
			}
			if !ok {
				t.Errorf("pair %d read back something it did not write", g)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
}
