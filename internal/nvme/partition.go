package nvme

import "fmt"

// Partition is a Device view of a contiguous LBA range of a parent
// device. Each PA-Tree shard opens its own Partition and allocates its
// own queue pairs through it, so N shards drive N queue pairs into ONE
// underlying device: the parent's controller-interference and internal-
// parallelism accounting stay shared across all shards (a SimDevice
// parent still reproduces the Fig 3c interference shapes with every
// shard contributing load).
//
// A Partition does not own the parent: Close is a no-op and the parent
// must outlive all partitions carved from it.
type Partition struct {
	parent Device
	start  uint64
	blocks uint64
}

// NewPartition carves the block range [start, start+blocks) out of
// parent as a standalone Device.
func NewPartition(parent Device, start, blocks uint64) (*Partition, error) {
	if blocks == 0 || start+blocks < start || start+blocks > parent.NumBlocks() {
		return nil, fmt.Errorf("nvme: partition [%d,+%d) exceeds device of %d blocks: %w",
			start, blocks, parent.NumBlocks(), ErrOutOfRange)
	}
	return &Partition{parent: parent, start: start, blocks: blocks}, nil
}

// BlockSize implements Device.
func (p *Partition) BlockSize() int { return p.parent.BlockSize() }

// NumBlocks implements Device: the partition's size, not the parent's.
func (p *Partition) NumBlocks() uint64 { return p.blocks }

// Start returns the partition's first LBA on the parent device.
func (p *Partition) Start() uint64 { return p.start }

// Parent returns the device this partition was carved from. Multi-device
// topologies use it to reason about which shards share a controller: two
// partitions interfere only when their parents are the same device.
func (p *Partition) Parent() Device { return p.parent }

// ShardPartitions carves one partition per shard across several parent
// devices, round-robin: shard i lives on device i mod len(devs), and the
// shards on one device split it equally, in shard order. It is the one
// layout routine shared by the embedder's multi-device open, the
// simulation harness and the crash tests, so all three agree on where a
// shard's blocks live. Fewer shards than devices (a device with no
// shards) or a device too small for its share is an error.
func ShardPartitions(devs []Device, shards int) ([]*Partition, error) {
	m := len(devs)
	if m == 0 {
		return nil, fmt.Errorf("nvme: no devices to place %d shards on", shards)
	}
	if shards < m {
		return nil, fmt.Errorf("nvme: device %d hosts no shards — remove it from the topology", shards)
	}
	parts := make([]*Partition, shards)
	for i := range parts {
		d := i % m
		per := devs[d].NumBlocks() / uint64((shards-d+m-1)/m) // split among the device's shards
		p, err := NewPartition(devs[d], uint64(i/m)*per, per)
		if err != nil {
			return nil, fmt.Errorf("nvme: shard %d on device %d: %w", i, d, err)
		}
		parts[i] = p
	}
	return parts, nil
}

// Close implements Device as a no-op; the parent owns the backing.
func (p *Partition) Close() error { return nil }

// Advance forwards to the parent's simulation hook when it has one
// (SimDevice, or a fault wrapper over one), so setup and recovery I/O
// that drives the engine directly keeps working on a partition view.
// On real-time parents it does nothing and callers fall back to
// wall-clock polling.
func (p *Partition) Advance() {
	if a, ok := p.parent.(interface{ Advance() }); ok {
		a.Advance()
	}
}

// ReadAt gives direct image access relative to the partition when the
// parent supports it (SimDevice, RAMDevice). It panics otherwise; it
// exists for bulk loading and test harnesses, not the I/O path.
func (p *Partition) ReadAt(lba uint64, buf []byte) {
	p.parent.(interface{ ReadAt(uint64, []byte) }).ReadAt(p.start+lba, buf)
}

// WriteAt is the write counterpart of ReadAt.
func (p *Partition) WriteAt(lba uint64, buf []byte) {
	p.parent.(interface{ WriteAt(uint64, []byte) }).WriteAt(p.start+lba, buf)
}

// AllocQueuePair implements Device: the pair is allocated on the parent
// and wrapped so commands are validated against the partition and
// translated to parent LBAs on the way down, with completions carrying
// the caller's original command on the way back up.
func (p *Partition) AllocQueuePair(depth int) (QueuePair, error) {
	inner, err := p.parent.AllocQueuePair(depth)
	if err != nil {
		return nil, err
	}
	return &partQP{p: p, inner: inner}, nil
}

// partQP translates LBAs between partition and parent space. Like every
// QueuePair it is owned by a single thread, so the locally-failed list
// needs no lock.
type partQP struct {
	p     *Partition
	inner QueuePair
	// failed holds completions for commands rejected against the
	// partition bounds; they are delivered by Probe like device errors
	// so the caller sees one completion discipline.
	failed []Completion
}

// Submit implements QueuePair.
func (q *partQP) Submit(cmd *Command) error {
	if cmd == nil {
		return ErrBadCommand
	}
	if err := validate(q.p, cmd); err != nil {
		q.failed = append(q.failed, Completion{Cmd: cmd, Err: err})
		return nil
	}
	fwd := *cmd
	if fwd.Op != OpFlush {
		fwd.LBA += q.p.start
	}
	orig := cmd
	fwd.Callback = func(c Completion) {
		if orig.Callback != nil {
			c.Cmd = orig
			orig.Callback(c)
		}
	}
	return q.inner.Submit(&fwd)
}

// Probe implements QueuePair: locally-rejected commands complete first,
// then the parent queue is reaped for the remaining budget.
func (q *partQP) Probe(max int) int {
	n := 0
	if len(q.failed) > 0 {
		take := len(q.failed)
		if max > 0 && take > max {
			take = max
		}
		batch := q.failed[:take]
		q.failed = append(q.failed[:0], q.failed[take:]...)
		for _, c := range batch {
			if c.Cmd.Callback != nil {
				c.Cmd.Callback(c)
			}
		}
		n = take
		if max > 0 {
			max -= take
			if max == 0 {
				return n
			}
		}
	}
	return n + q.inner.Probe(max)
}

// Outstanding implements QueuePair.
func (q *partQP) Outstanding() int { return q.inner.Outstanding() + len(q.failed) }

// Free implements QueuePair.
func (q *partQP) Free() error { return q.inner.Free() }
