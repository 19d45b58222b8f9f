package patree

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
)

// loadedRAM is a RAM device holding a bulk-loaded tree of n keys with a
// journal region, so Open runs recovery over it.
func loadedRAM(t *testing.T, n int) *nvme.RAMDevice {
	t.Helper()
	pairs := make([]core.KV, n)
	for i := range pairs {
		pairs[i] = core.KV{Key: uint64(i + 1), Value: []byte(fmt.Sprintf("value-%06d", i+1))}
	}
	dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})
	t.Cleanup(func() { dev.Close() })
	meta, err := core.BulkLoad(dev, pairs, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if meta.WALBlocks == 0 {
		t.Fatal("bulk-loaded image got no journal region")
	}
	return dev
}

// TestOpenSingleP pins that Open makes progress with one P. When the RAM
// device served commands from goroutines of its own, a recovery polling
// loop that never yielded left them waiting for the runtime's 10 ms
// preemption on every page, and Open of even this small image took
// minutes. The device now completes on the polling thread; the test keeps
// setup I/O's polling loop and the worker's spin honest under one P.
func TestOpenSingleP(t *testing.T) {
	dev := loadedRAM(t, 5000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		db, err := Open(Options{Device: dev})
		if err != nil {
			done <- fmt.Errorf("open: %w", err)
			return
		}
		if v, ok, err := db.Get(2500); err != nil || !ok || string(v) != "value-002500" {
			done <- fmt.Errorf("get: %q %v %v", v, ok, err)
			return
		}
		done <- db.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Open, Get and Close with GOMAXPROCS(1) did not finish in 60 s")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Open, Get and Close with GOMAXPROCS(1) took %v, want well under 5 s", took)
	}
}

// flakyMeta fails the first reads of LBA 0 with a transient status, as a
// device with a marginal block (or a congested fabric) would.
type flakyMeta struct {
	nvme.Device
	failures int // reads of LBA 0 still to fail
}

func (d *flakyMeta) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	inner, err := d.Device.AllocQueuePair(depth)
	if err != nil {
		return nil, err
	}
	return &flakyQP{QueuePair: inner, d: d}, nil
}

type flakyQP struct {
	nvme.QueuePair
	d      *flakyMeta
	failed []*nvme.Command
}

func (q *flakyQP) Submit(cmd *nvme.Command) error {
	if cmd.Op == nvme.OpRead && cmd.LBA == 0 && q.d.failures > 0 {
		q.d.failures--
		q.failed = append(q.failed, cmd)
		return nil
	}
	return q.QueuePair.Submit(cmd)
}

func (q *flakyQP) Probe(max int) int {
	n := q.QueuePair.Probe(max)
	failed := q.failed
	q.failed = nil
	for _, cmd := range failed {
		cmd.Callback(nvme.Completion{Cmd: cmd, Err: nvme.ErrMedia})
	}
	return n + len(failed)
}

func (q *flakyQP) Outstanding() int { return q.QueuePair.Outstanding() + len(q.failed) }

// TestOpenNeverFormatsOnIOError pins that a device error on the
// superblock is retried or returned, and never read as "no tree here":
// before, two failed reads of page 0 sent Open down the format path and a
// healthy image was wiped.
func TestOpenNeverFormatsOnIOError(t *testing.T) {
	const keys = 2000
	// ReadMeta and Recover each give the page four attempts.
	for _, failures := range []int{2, 5} {
		t.Run(fmt.Sprintf("transient-%d", failures), func(t *testing.T) {
			db, err := Open(Options{Device: &flakyMeta{Device: loadedRAM(t, keys), failures: failures}})
			if err != nil {
				t.Fatalf("open over %d failed superblock reads: %v", failures, err)
			}
			defer db.Close()
			for _, k := range []uint64{1, keys / 2, keys} {
				if v, ok, err := db.Get(k); err != nil || !ok || string(v) != fmt.Sprintf("value-%06d", k) {
					t.Fatalf("get %d after open: %q %v %v", k, v, ok, err)
				}
			}
		})
	}
	t.Run("persistent", func(t *testing.T) {
		ram := loadedRAM(t, keys)
		before := ram.ImageSnapshot()
		db, err := Open(Options{Device: &flakyMeta{Device: ram, failures: 1 << 20}})
		if err == nil {
			db.Close()
			t.Fatal("open over an unreadable superblock succeeded")
		}
		if !errors.Is(err, nvme.ErrMedia) {
			t.Fatalf("open: %v, want the device's media error", err)
		}
		if !reflect.DeepEqual(ram.ImageSnapshot(), before) {
			t.Fatal("open over an unreadable superblock changed the device image")
		}
	})
}

// logReads counts the blocks read in [from, to) through its queue pairs.
type logReads struct {
	nvme.Device
	from, to uint64
	blocks   atomic.Int64
}

func (d *logReads) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	inner, err := d.Device.AllocQueuePair(depth)
	if err != nil {
		return nil, err
	}
	return &logReadsQP{QueuePair: inner, d: d}, nil
}

type logReadsQP struct {
	nvme.QueuePair
	d *logReads
}

func (q *logReadsQP) Submit(cmd *nvme.Command) error {
	if cmd.Op == nvme.OpRead {
		if lo, hi := max(cmd.LBA, q.d.from), min(cmd.LBA+uint64(cmd.Blocks), q.d.to); lo < hi {
			q.d.blocks.Add(int64(hi - lo))
		}
	}
	return q.QueuePair.Submit(cmd)
}

// TestRecoverCleanReopenReadsLogHead pins that a restart after a clean
// Close reads the journal region's first block and nothing more of it:
// Close's checkpoint leaves the log empty, and an empty log has no frame
// in its first block. Recovery reports the same as it would after reading
// the whole region.
func TestRecoverCleanReopenReadsLogHead(t *testing.T) {
	const keys = 500
	ram := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})
	defer ram.Close()
	db, err := Open(Options{Device: ram, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= keys; k++ {
		if err := db.Put(k, []byte(fmt.Sprintf("value-%06d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := core.ReadMeta(ram)
	if err != nil || meta.WALBlocks < 2 {
		t.Fatalf("meta after close: %+v, %v", meta, err)
	}
	dev := &logReads{Device: ram, from: meta.WALStart + 1, to: meta.WALStart + meta.WALBlocks}

	_, rep, err := core.Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if want := (core.RecoverReport{Journaled: true, KeysCounted: keys}); *rep != want {
		t.Errorf("report after a clean close = %+v, want %+v", *rep, want)
	}
	if n := dev.blocks.Load(); n != 0 {
		t.Errorf("Recover read %d journal blocks past the first of an empty log", n)
	}

	db, err = Open(Options{Device: dev, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := db.Get(keys / 2); err != nil || !ok || string(v) != fmt.Sprintf("value-%06d", keys/2) {
		t.Fatalf("get after reopen: %q %v %v", v, ok, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := dev.blocks.Load(); n != 0 {
		t.Errorf("reopen read %d journal blocks past the first of an empty log", n)
	}
}
