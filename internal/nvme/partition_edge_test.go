// Partition edge-case coverage lives in an external test package so it
// can exercise partitions over the fault-injection wrapper (internal/
// fault imports nvme; the reverse import is only legal from _test).
package nvme_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/patree/patree/internal/fault"
	"github.com/patree/patree/internal/nvme"
)

// syncIO submits one command on qp and polls until its completion is
// delivered, returning the completion error.
func syncIO(t *testing.T, qp nvme.QueuePair, cmd *nvme.Command) error {
	t.Helper()
	done := false
	var got error
	cmd.Callback = func(c nvme.Completion) { done = true; got = c.Err }
	if err := qp.Submit(cmd); err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !done {
		qp.Probe(0)
		if time.Now().After(deadline) {
			t.Fatal("completion never delivered")
		}
	}
	return got
}

func TestNewPartitionRefusals(t *testing.T) {
	dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1024})
	defer dev.Close()
	cases := []struct {
		name          string
		start, blocks uint64
	}{
		{"zero blocks", 0, 0},
		{"zero blocks offset", 512, 0},
		{"start beyond device", 2048, 1},
		{"start at device end", 1024, 1},
		{"length beyond device", 0, 1025},
		{"tail overrun", 1000, 100},
		{"start+blocks wraps uint64", ^uint64(0) - 10, 100},
	}
	for _, tc := range cases {
		if p, err := nvme.NewPartition(dev, tc.start, tc.blocks); err == nil {
			t.Errorf("%s: NewPartition(%d, %d) succeeded (%d blocks)", tc.name, tc.start, tc.blocks, p.NumBlocks())
		} else if !errors.Is(err, nvme.ErrOutOfRange) {
			t.Errorf("%s: error %v does not wrap ErrOutOfRange", tc.name, err)
		}
	}
	// The full device and the last single block are both legal.
	if _, err := nvme.NewPartition(dev, 0, 1024); err != nil {
		t.Errorf("full-device partition refused: %v", err)
	}
	if _, err := nvme.NewPartition(dev, 1023, 1); err != nil {
		t.Errorf("last-block partition refused: %v", err)
	}
}

// boundaryRoundTrip drives writes and reads at a partition's first and
// last block through its queue pair, verifying translation against the
// parent's raw image, and that one-past-the-end is refused with
// ErrOutOfRange delivered as a completion (the queue-pair discipline),
// not a submit error.
func boundaryRoundTrip(t *testing.T, parent nvme.Device, img interface {
	ReadAt(uint64, []byte)
}, start, blocks uint64) {
	t.Helper()
	p, err := nvme.NewPartition(parent, start, blocks)
	if err != nil {
		t.Fatalf("partition [%d,+%d): %v", start, blocks, err)
	}
	if p.Start() != start || p.NumBlocks() != blocks {
		t.Fatalf("geometry: start=%d blocks=%d, want %d/%d", p.Start(), p.NumBlocks(), start, blocks)
	}
	qp, err := p.AllocQueuePair(16)
	if err != nil {
		t.Fatalf("alloc qp: %v", err)
	}
	defer qp.Free()

	bs := p.BlockSize()
	for _, lba := range []uint64{0, blocks - 1} {
		want := bytes.Repeat([]byte{byte(0xA0 + lba)}, bs)
		if err := syncIO(t, qp, &nvme.Command{Op: nvme.OpWrite, LBA: lba, Blocks: 1, Buf: append([]byte(nil), want...)}); err != nil {
			t.Fatalf("write lba %d: %v", lba, err)
		}
		// The parent image must hold the bytes at the translated LBA.
		raw := make([]byte, bs)
		img.ReadAt(start+lba, raw)
		if !bytes.Equal(raw, want) {
			t.Fatalf("lba %d landed wrong on parent: got %x... want %x...", lba, raw[:4], want[:4])
		}
		got := make([]byte, bs)
		if err := syncIO(t, qp, &nvme.Command{Op: nvme.OpRead, LBA: lba, Blocks: 1, Buf: got}); err != nil {
			t.Fatalf("read lba %d: %v", lba, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read back lba %d: got %x... want %x...", lba, got[:4], want[:4])
		}
	}

	// One past the end, and a multi-block overrun straddling the
	// boundary: refused at the partition, delivered as error
	// completions.
	for _, bad := range []*nvme.Command{
		{Op: nvme.OpRead, LBA: blocks, Blocks: 1, Buf: make([]byte, bs)},
		{Op: nvme.OpWrite, LBA: blocks, Blocks: 1, Buf: make([]byte, bs)},
		{Op: nvme.OpRead, LBA: blocks - 1, Blocks: 2, Buf: make([]byte, 2*bs)},
	} {
		if err := syncIO(t, qp, bad); !errors.Is(err, nvme.ErrOutOfRange) {
			t.Fatalf("op %v lba %d blocks %d: %v, want ErrOutOfRange", bad.Op, bad.LBA, bad.Blocks, err)
		}
	}
	// The parent block just past the partition must be untouched by the
	// refused write.
	if start+blocks < parent.NumBlocks() {
		raw := make([]byte, bs)
		img.ReadAt(start+blocks, raw)
		if !bytes.Equal(raw, make([]byte, bs)) {
			t.Fatalf("refused write leaked past the partition end")
		}
	}
}

func TestPartitionBoundaryIO(t *testing.T) {
	dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 4096})
	defer dev.Close()
	// Middle of the device: both edges are interior, so translation
	// mistakes in either direction would land on a live parent block.
	boundaryRoundTrip(t, dev, dev, 1024, 512)
	// Tail of the device: the last partition block is the last device
	// block.
	boundaryRoundTrip(t, dev, dev, 4096-256, 256)
}

// TestPartitionBoundaryIOFaultWrapped repeats the boundary round-trip
// with the partition carved from a fault wrapper (injection enabled,
// all probabilities zero): the passthrough path must preserve LBA
// translation and the partition's range checks exactly.
func TestPartitionBoundaryIOFaultWrapped(t *testing.T) {
	ram := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 4096})
	defer ram.Close()
	fdev := fault.New(ram, fault.Config{Seed: 42})
	boundaryRoundTrip(t, fdev, ram, 2048, 1024)
	if c := fdev.Counts(); c.ReadErrs+c.WriteErrs+c.Timeouts+c.BitRots != 0 {
		t.Fatalf("zero-probability wrapper injected faults: %+v", c)
	}
}

func TestShardPartitionsValidation(t *testing.T) {
	mk := func(blocks uint64) nvme.Device {
		d := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: blocks})
		t.Cleanup(func() { d.Close() })
		return d
	}
	devs := []nvme.Device{mk(4096), mk(4096)}

	if _, err := nvme.ShardPartitions(nil, 4); err == nil {
		t.Error("no devices accepted")
	}
	if _, err := nvme.ShardPartitions(devs, 1); err == nil {
		t.Error("starved device accepted")
	}

	// Round-robin: shards alternate devices, each device's shards split
	// it equally in shard order.
	parts, err := nvme.ShardPartitions(devs, 4)
	if err != nil {
		t.Fatalf("round-robin: %v", err)
	}
	wantParent := []nvme.Device{devs[0], devs[1], devs[0], devs[1]}
	wantStart := []uint64{0, 0, 2048, 2048}
	for i, p := range parts {
		if p.Parent() != wantParent[i] || p.Start() != wantStart[i] || p.NumBlocks() != 2048 {
			t.Errorf("shard %d: parent/start/blocks = %p/%d/%d, want %p/%d/2048",
				i, p.Parent(), p.Start(), p.NumBlocks(), wantParent[i], wantStart[i])
		}
	}

	// Uneven split truncates: 3 shards on one 4096-block device get 1365
	// blocks each, in shard order.
	single := []nvme.Device{mk(4096)}
	parts, err = nvme.ShardPartitions(single, 3)
	if err != nil {
		t.Fatalf("uneven split: %v", err)
	}
	for i, p := range parts {
		if p.NumBlocks() != 1365 || p.Start() != uint64(i)*1365 {
			t.Errorf("uneven shard %d: start=%d blocks=%d, want %d/1365", i, p.Start(), p.NumBlocks(), uint64(i)*1365)
		}
	}

	// Devices with unequal shard counts: 3 shards on two devices put
	// shards 0 and 2 on the first, half of it each, and shard 1 alone on
	// the whole second.
	parts, err = nvme.ShardPartitions(devs, 3)
	if err != nil {
		t.Fatalf("3 shards on 2 devices: %v", err)
	}
	wantParent = []nvme.Device{devs[0], devs[1], devs[0]}
	wantStart = []uint64{0, 0, 2048}
	wantBlocks := []uint64{2048, 4096, 2048}
	for i, p := range parts {
		if p.Parent() != wantParent[i] || p.Start() != wantStart[i] || p.NumBlocks() != wantBlocks[i] {
			t.Errorf("shard %d of 3: parent/start/blocks = %p/%d/%d, want %p/%d/%d",
				i, p.Parent(), p.Start(), p.NumBlocks(), wantParent[i], wantStart[i], wantBlocks[i])
		}
	}
}
