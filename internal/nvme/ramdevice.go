package nvme

import "sync"

// RAMConfig parameterizes the real-time memory-backed device.
type RAMConfig struct {
	// BlockSize is the access granularity (default 512).
	BlockSize int
	// NumBlocks is the capacity in blocks (default 1M blocks = 512 MiB).
	NumBlocks uint64
	// MaxQueuePairs and MaxQueueDepth bound AllocQueuePair.
	MaxQueuePairs int
	MaxQueueDepth int
}

func (c RAMConfig) withDefaults() RAMConfig {
	if c.BlockSize <= 0 {
		c.BlockSize = 512
	}
	if c.NumBlocks == 0 {
		c.NumBlocks = 1 << 20
	}
	if c.MaxQueuePairs <= 0 {
		c.MaxQueuePairs = 256
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 2048
	}
	return c
}

// RAMDevice is a real-time Device backed by host memory and polled like
// one: Submit runs the command against the block store on the submitting
// thread and posts its completion to the queue pair's completion ring;
// the next Probe reaps it on that same thread.
// No goroutine or timer stands between the two. The block store is shared
// by every queue pair and the direct-access methods, under one mutex.
type RAMDevice struct {
	cfg RAMConfig

	mu     sync.Mutex
	store  blockStore
	nextQP int
	closed bool
}

// NewRAMDevice creates a memory-backed device.
func NewRAMDevice(cfg RAMConfig) *RAMDevice {
	cfg = cfg.withDefaults()
	return &RAMDevice{cfg: cfg, store: blockStore{bs: cfg.BlockSize}}
}

// BlockSize implements Device.
func (d *RAMDevice) BlockSize() int { return d.cfg.BlockSize }

// NumBlocks implements Device.
func (d *RAMDevice) NumBlocks() uint64 { return d.cfg.NumBlocks }

// Close implements Device: later submissions and allocations fail with
// ErrClosed; completions already posted can still be reaped.
func (d *RAMDevice) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	return nil
}

// AllocQueuePair implements Device.
func (d *RAMDevice) AllocQueuePair(depth int) (QueuePair, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if d.nextQP >= d.cfg.MaxQueuePairs {
		return nil, ErrTooManyQP
	}
	if depth <= 0 || depth > d.cfg.MaxQueueDepth {
		depth = d.cfg.MaxQueueDepth
	}
	d.nextQP++
	return &ramQP{dev: d, ring: make([]ramCQE, depth)}, nil
}

// ReadAt copies blocks starting at lba into buf, bypassing the queue
// pairs. Unwritten blocks read as zeros. Together with WriteAt it gives
// test harnesses (fault injection, crash simulation) direct image access.
func (d *RAMDevice) ReadAt(lba uint64, buf []byte) {
	d.mu.Lock()
	d.store.read(lba, buf)
	d.mu.Unlock()
}

// WriteAt stores buf at lba, bypassing the queue pairs. A buf that ends
// mid-block zero-fills the rest of that block.
func (d *RAMDevice) WriteAt(lba uint64, buf []byte) {
	d.mu.Lock()
	d.store.write(lba, buf)
	d.mu.Unlock()
}

// ImageSnapshot returns a deep copy of every written block, keyed by
// LBA — the surviving bytes a crash-recovery test reopens.
func (d *RAMDevice) ImageSnapshot() map[uint64][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.snapshot()
}

// LoadImage replaces the device content with img (deep-copied), the
// counterpart of ImageSnapshot for reopen-after-crash tests.
func (d *RAMDevice) LoadImage(img map[uint64][]byte) {
	d.mu.Lock()
	d.store.load(img)
	d.mu.Unlock()
}

// ramQP is a queue pair on a RAMDevice. Its completion ring is touched
// only by Submit and Probe, which the pair's one owner thread calls (per
// the QueuePair contract), so it needs no lock.
type ramQP struct {
	dev   *RAMDevice
	ring  []ramCQE // circular; every outstanding command holds one slot
	head  int      // oldest unreaped completion
	n     int      // completions in the ring
	freed bool
}

// ramCQE is a posted completion.
type ramCQE struct {
	cmd *Command
	err error
}

// Submit implements QueuePair. The command runs now: a write consumes
// Buf, a read fills it, a flush has nothing to do. A malformed command
// takes a slot like any other and completes with its error status.
func (q *ramQP) Submit(cmd *Command) error {
	if cmd == nil {
		return ErrBadCommand
	}
	if q.freed {
		return ErrQueueFreed
	}
	if q.n == len(q.ring) {
		return ErrQueueFull
	}
	d := q.dev
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	err := validate(d, cmd)
	if err == nil {
		switch n := cmd.Blocks * d.cfg.BlockSize; cmd.Op {
		case OpRead:
			d.store.read(cmd.LBA, cmd.Buf[:n])
		case OpWrite:
			d.store.write(cmd.LBA, cmd.Buf[:n])
		}
	}
	d.mu.Unlock()
	q.ring[(q.head+q.n)%len(q.ring)] = ramCQE{cmd: cmd, err: err}
	q.n++
	return nil
}

// Probe implements QueuePair: it reaps, oldest first, up to max of the
// completions posted before the call. Callbacks run with no lock held,
// so they may submit again.
func (q *ramQP) Probe(max int) int {
	n := q.n
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		e := &q.ring[q.head]
		c := Completion{Cmd: e.cmd, Err: e.err}
		*e = ramCQE{}
		q.head = (q.head + 1) % len(q.ring)
		q.n--
		if c.Cmd.Callback != nil {
			c.Cmd.Callback(c)
		}
	}
	return n
}

// Outstanding implements QueuePair.
func (q *ramQP) Outstanding() int { return q.n }

// Free implements QueuePair: later submissions fail with ErrQueueFreed.
func (q *ramQP) Free() error {
	q.freed = true
	return nil
}
