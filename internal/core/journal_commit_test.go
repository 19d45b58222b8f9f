package core

import (
	"bytes"
	"cmp"
	"fmt"
	"testing"
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// commitPairs is n keys with 100-byte values, the benchmark's pair size.
func commitPairs(n int) []KV {
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(i+1) * 5, Value: bytes.Repeat([]byte{byte(i)}, 100)}
	}
	return pairs
}

// TestJournalBytesPerUpdate: an in-place update journals one leaf record
// of exactly frame + 27 + the value — the key's change, not the leaf —
// and the log blocks reach the device once each, plus at most one
// rewrite of the tail per ready-queue drain. The ops run one at a time,
// so every op is one drain.
func TestJournalBytesPerUpdate(t *testing.T) {
	const keys, updates = 600, 200
	r := &rig{t: t}
	r.eng = sim.NewEngine()
	r.os = simos.New(r.eng, simos.Config{})
	r.dev = nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 11, NumBlocks: 1 << 16})
	pairs := commitPairs(keys)
	meta, err := BulkLoad(r.dev, pairs, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	r.attach(t, Config{Persistence: StrongPersistence, BufferPages: 256, Journal: true}, meta)

	want := uint64(0)
	for i := 0; i < updates; i++ {
		key := pairs[(i*37)%keys].Key
		if res := r.do(NewUpdate(key, bytes.Repeat([]byte{0xEE}, 100), nil)); res.Err != nil || !res.Found {
			t.Fatalf("update %d: found=%v err=%v", key, res.Found, res.Err)
		}
		want += uint64(wal.FrameOverhead + 27 + 100)
	}
	st := r.tree.StatsSnapshot()
	if st.JournalAppends != updates || st.JournalLeafRecords != updates || st.JournalBytes != want {
		t.Fatalf("journaled %d records (%d leaf records) in %d bytes, want %d leaf records in %d bytes",
			st.JournalAppends, st.JournalLeafRecords, st.JournalBytes, updates, want)
	}
	if full := uint64(updates * (wal.FrameOverhead + 18 + storage.PageSize)); want*3 > full {
		t.Errorf("%d bytes journaled: not under a third of the %d of full page images", want, full)
	}
	blocks := (want + storage.PageSize - 1) / storage.PageSize
	if st.JournalBlockWrites < blocks || st.JournalBlockWrites > blocks+updates {
		t.Errorf("%d WAL block writes for %d log blocks and %d drains", st.JournalBlockWrites, blocks, updates)
	}
}

// nextProbeDev is a device with no service time: whatever is submitted
// completes on the next Probe, the polled RAM device ROADMAP item 2 asks
// for reduced to what the journal writer can see of it. It counts the
// writes that land in [walFrom, ∞). It has 1<<16 blocks unless size says
// otherwise.
type nextProbeDev struct {
	blocks    map[uint64][]byte
	size      uint64
	walFrom   uint64
	walWrites int
}

func (d *nextProbeDev) AllocQueuePair(int) (nvme.QueuePair, error) { return &nextProbeQP{d: d}, nil }
func (d *nextProbeDev) BlockSize() int                             { return storage.PageSize }
func (d *nextProbeDev) NumBlocks() uint64                          { return cmp.Or(d.size, 1<<16) }
func (d *nextProbeDev) Close() error                               { return nil }
func (d *nextProbeDev) WriteAt(lba uint64, buf []byte) {
	for off := 0; off < len(buf); off += storage.PageSize {
		d.blocks[lba+uint64(off/storage.PageSize)] = append([]byte(nil), buf[off:off+storage.PageSize]...)
	}
}

type nextProbeQP struct {
	d       *nextProbeDev
	pending []*nvme.Command
}

func (q *nextProbeQP) Submit(c *nvme.Command) error {
	switch c.Op {
	case nvme.OpWrite:
		q.d.WriteAt(c.LBA, c.Buf[:c.Blocks*storage.PageSize]) // snapshot at submit, as every device does
		if q.d.walFrom != 0 && c.LBA >= q.d.walFrom {
			q.d.walWrites += c.Blocks
		}
	case nvme.OpRead:
		clear(c.Buf)
		for i := 0; i < c.Blocks; i++ {
			copy(c.Buf[i*storage.PageSize:], q.d.blocks[c.LBA+uint64(i)])
		}
	}
	q.pending = append(q.pending, c)
	return nil
}

func (q *nextProbeQP) Probe(int) int {
	batch := q.pending
	q.pending = nil
	for _, c := range batch {
		c.Callback(nvme.Completion{Cmd: c})
	}
	return len(batch)
}
func (q *nextProbeQP) Outstanding() int { return len(q.pending) }
func (q *nextProbeQP) Free() error      { return nil }

// TestJournalGroupCommitInstantDevice is the group-commit rule where
// device slowness cannot batch anything: a closed loop of 64 outstanding
// single-leaf updates, every command complete one probe after it was
// issued. The tail block goes out when the ready queue has drained, not
// once per redo group, so the log costs fewer block writes than it has
// records: 0.28 with leaf records, 0.76 when every update logged its
// leaf's image. A writer that flushes the tail with every group — the one
// this replaced — read 1.35 with images: each record ends in a block the
// next one rewrites, and nothing is slow enough to supersede it in queue.
func TestJournalGroupCommitInstantDevice(t *testing.T) {
	const ops, total = 64, 1024
	dev := &nextProbeDev{blocks: map[uint64][]byte{}}
	pairs := commitPairs(ops * 8)
	meta, err := BulkLoad(dev, pairs, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if meta.WALBlocks == 0 {
		t.Fatal("no journal region")
	}
	dev.walFrom = meta.WALStart
	cfg := Config{Persistence: StrongPersistence, BufferPages: 1024, Journal: true, Policy: sched.NewAlwaysProbe()}
	tree, err := New(dev, cfg, &tickEnv{}, meta)
	if err != nil {
		t.Fatal(err)
	}
	done, next := 0, 0
	var admit func()
	admit = func() {
		key := pairs[(next*8)%len(pairs)].Key
		next++
		tree.Admit(NewUpdate(key, bytes.Repeat([]byte{0xAB}, 100), func(o *Op) {
			if o.Res.Err != nil || !o.Res.Found {
				t.Errorf("update %d: found=%v err=%v", o.Key(), o.Res.Found, o.Res.Err)
			}
			done++
			switch {
			case next < total:
				admit() // closed loop: a completion admits the next update
			case done == total:
				tree.Stop()
			}
		}))
	}
	for i := 0; i < ops; i++ {
		admit()
	}
	tree.Run() // returns once the last completion has stopped it
	records := tree.StatsSnapshot().JournalAppends
	if done != total || records != total {
		t.Fatalf("%d of %d updates completed, %d records", done, total, records)
	}
	perRecord := float64(dev.walWrites) / float64(records)
	t.Logf("%d WAL block writes for %d records: %.2f per record", dev.walWrites, records, perRecord)
	if perRecord >= 1.0 {
		t.Errorf("%.2f WAL block writes per record, want < 1.0", perRecord)
	}
}

// budgetEnv is tickEnv with a budget of virtual time, past which a test
// that should long have finished stops with a verdict instead of spinning.
type budgetEnv struct {
	tickEnv
	budget sim.Time
}

func (e *budgetEnv) Now() sim.Time {
	if e.now > e.budget {
		panic(fmt.Sprintf("still running after %v of virtual time", time.Duration(e.budget)))
	}
	return e.tickEnv.Now()
}

// TestCheckpointCommitsTail is a checkpoint meeting operations the journal
// gate defers: rounds of 64 inserts of 10-byte values into a weak tree
// with a 4-page buffer and a 512-block log, on a device that completes
// everything at the next probe. The tail block goes out when the ready
// queue drains, but deferred operations come due again every pass and
// keep it from draining; the checkpoint waits for the operations whose
// records sit in that tail. Unless raising the fence sends the tail,
// nothing moves again (a healthy run takes 65 ms of virtual time).
func TestCheckpointCommitsTail(t *testing.T) {
	const rounds, perRound = 40, 64
	dev := &nextProbeDev{blocks: map[uint64][]byte{}, size: 1 << 12}
	meta, err := Format(dev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Persistence: WeakPersistence, BufferPages: 4, Journal: true, Policy: sched.NewAlwaysProbe()}
	tree, err := New(dev, cfg, &budgetEnv{budget: sim.Time(time.Second)}, meta)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	var round func(r int)
	round = func(r int) {
		if r == rounds {
			tree.Stop()
			return
		}
		left := perRound
		for i := 0; i < perRound; i++ {
			n := uint64(r*perRound + i)
			tree.Admit(NewInsert((n*2654435761)%1_000_003, bytes.Repeat([]byte{1}, 10), func(o *Op) {
				if o.Res.Err != nil {
					t.Errorf("insert: %v", o.Res.Err)
				}
				done++
				if left--; left == 0 {
					round(r + 1)
				}
			}))
		}
	}
	round(0)
	tree.Run()
	if st := tree.StatsSnapshot(); done != rounds*perRound || st.Checkpoints == 0 {
		t.Fatalf("%d of %d inserts, %d checkpoints: the log never filled", done, rounds*perRound, st.Checkpoints)
	}
}
