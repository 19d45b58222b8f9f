package patree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/storage"
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

// TestOpenRefusesMalformedRoot: a root page sealed with a key count no
// page can hold fails recovery's walk, and Open returns that as an error,
// without a panic and without formatting over the image.
func TestOpenRefusesMalformedRoot(t *testing.T) {
	ram := loadedRAM(t, 2000)
	buf := make([]byte, storage.PageSize)
	ram.ReadAt(0, buf)
	meta, err := storage.DecodeMeta(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Seal it as storage does: the CRC-32C, seeded by the page id, of the
	// image with its checksum field zeroed.
	id := meta.Root
	ram.ReadAt(uint64(id), buf)
	binary.LittleEndian.PutUint16(buf[2:4], 1000)
	binary.LittleEndian.PutUint32(buf[12:16], 0)
	binary.LittleEndian.PutUint32(buf[12:16], crc32.Update(uint32(id)^uint32(id>>32), crc32.MakeTable(crc32.Castagnoli), buf))
	ram.WriteAt(uint64(id), buf)
	before := ram.ImageSnapshot()
	if db, err := Open(Options{Device: ram}); err == nil {
		db.Close()
		t.Fatal("open over a malformed root succeeded")
	}
	if !reflect.DeepEqual(ram.ImageSnapshot(), before) {
		t.Fatal("open over a malformed root changed the device image")
	}
}

// TestScanRefusesCyclicLeafChain: a leaf chain that loops passes every
// page's own check and recovery, whose walk follows child pointers only.
// A scan over it fails alone with ErrCorruptPage, the tree keeps serving,
// and Close returns. Before the scan checked its right steps, the
// unlimited scan ran forever and Close waited on it; the deadline bounds
// that.
func TestScanRefusesCyclicLeafChain(t *testing.T) {
	for _, c := range []struct {
		name   string
		relink func(leaves []*storage.Node)
	}{
		{"self", func(l []*storage.Node) { l[0].Next = l[0].ID }},
		{"back", func(l []*storage.Node) { l[len(l)-1].Next = l[0].ID }},
		{"empty", func(l []*storage.Node) {
			for _, n := range l[:2] {
				n.Keys, n.Vals = nil, nil
			}
			l[1].Next = l[0].ID
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ram := loadedRAM(t, 200)
			leaves := leafChain(t, ram)
			if len(leaves) < 3 {
				t.Fatalf("%d leaves, want at least 3", len(leaves))
			}
			c.relink(leaves)
			for _, n := range leaves[:2] {
				ram.WriteAt(uint64(n.ID), n.Encode())
			}
			ram.WriteAt(uint64(leaves[len(leaves)-1].ID), leaves[len(leaves)-1].Encode())
			done := make(chan error, 1)
			go func() {
				db, err := Open(Options{Device: ram})
				if err != nil {
					done <- fmt.Errorf("open: %w", err)
					return
				}
				for _, limit := range []int{5000, 0} {
					if pairs, err := db.Scan(0, ^uint64(0), limit); !errors.Is(err, storage.ErrCorruptPage) {
						err = fmt.Errorf("scan limit %d: %d pairs, err %v, want %v", limit, len(pairs), err, storage.ErrCorruptPage)
						db.Close()
						done <- err
						return
					}
				}
				if v, found, err := db.Get(200); err != nil || !found || string(v) != "value-000200" {
					err = fmt.Errorf("get after the refused scans: %q %v %v", v, found, err)
					db.Close()
					done <- err
					return
				}
				done <- db.Close()
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("scan over a cyclic leaf chain, or Close after it, still running after 30 s")
			}
		})
	}
}

// leafChain decodes the leaves of the tree on dev from left to right.
func leafChain(t *testing.T, dev *nvme.RAMDevice) []*storage.Node {
	t.Helper()
	buf := make([]byte, storage.PageSize)
	read := func(id storage.PageID) *storage.Node {
		dev.ReadAt(uint64(id), buf)
		n, err := storage.DecodeNode(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	dev.ReadAt(0, buf)
	meta, err := storage.DecodeMeta(buf)
	if err != nil {
		t.Fatal(err)
	}
	n := read(meta.Root)
	for !n.IsLeaf() {
		n = read(n.Children[0])
	}
	leaves := []*storage.Node{n}
	for n.Next != storage.NilPage {
		n = read(n.Next)
		leaves = append(leaves, n)
	}
	return leaves
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
