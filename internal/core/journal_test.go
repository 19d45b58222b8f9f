package core

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

// newJournalRig builds a rig over a device of devBlocks blocks with the
// redo journal enabled.
func newJournalRig(t *testing.T, cfg Config, devBlocks uint64) *rig {
	t.Helper()
	cfg.Journal = true
	r := &rig{t: t}
	r.eng = sim.NewEngine()
	r.os = simos.New(r.eng, simos.Config{})
	r.dev = nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 11, NumBlocks: devBlocks})
	meta, err := Format(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	if meta.WALBlocks == 0 {
		t.Fatalf("device of %d blocks got no WAL region", devBlocks)
	}
	r.attach(t, cfg, meta)
	return r
}

// crashReopen loads a device-image snapshot into a fresh simulated
// device (modelling a machine restart over the surviving bytes), runs
// Recover, and returns the new rig plus the recovery report.
func crashReopen(t *testing.T, img map[uint64][]byte, cfg Config, devBlocks uint64) (*rig, *RecoverReport) {
	t.Helper()
	cfg.Journal = true
	r := &rig{t: t}
	r.eng = sim.NewEngine()
	r.os = simos.New(r.eng, simos.Config{})
	r.dev = nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 12, NumBlocks: devBlocks})
	r.dev.LoadImage(img)
	meta, rep, err := Recover(r.dev)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	r.attach(t, cfg, meta)
	return r, rep
}

func TestJournalCrashRecoveryWeak(t *testing.T) {
	const n = 300
	const blocks = 1 << 16
	cfg := Config{Persistence: WeakPersistence, BufferPages: 64}
	r := newJournalRig(t, cfg, blocks)
	for i := uint64(1); i <= n; i++ {
		if err := r.insert(i*7, fmt.Sprintf("v%d", i)).Err; err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	st := r.tree.StatsSnapshot()
	if st.JournalAppends == 0 {
		t.Fatal("journal enabled but no records appended")
	}

	// Crash: every acknowledged op's redo group is durable, but buffered
	// leaf pages may never have reached the device.
	img := r.dev.ImageSnapshot()
	r2, rep := crashReopen(t, img, cfg, blocks)
	if !rep.Journaled {
		t.Fatal("recovery did not scan the journal")
	}
	if rep.PagesRedone == 0 {
		t.Fatal("weak-mode crash should require page redo")
	}
	if rep.KeysCounted != n {
		t.Fatalf("recovered %d keys, want %d (report %+v)", rep.KeysCounted, n, rep)
	}
	for i := uint64(1); i <= n; i++ {
		res := r2.search(i * 7)
		if res.Err != nil {
			t.Fatalf("key %d lost after crash: %v", i*7, res.Err)
		}
		if want := fmt.Sprintf("v%d", i); string(res.Value) != want {
			t.Fatalf("key %d = %q, want %q", i*7, res.Value, want)
		}
	}
	// The reopened tree must accept new writes.
	if err := r2.insert(1, "post-crash").Err; err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

func TestJournalCrashRecoveryStrong(t *testing.T) {
	const n = 200
	const blocks = 1 << 16
	cfg := Config{Persistence: StrongPersistence, BufferPages: 64}
	r := newJournalRig(t, cfg, blocks)
	for i := uint64(1); i <= n; i++ {
		if err := r.insert(i, fmt.Sprintf("s%d", i)).Err; err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	img := r.dev.ImageSnapshot()
	r2, rep := crashReopen(t, img, cfg, blocks)
	if rep.KeysCounted != n {
		t.Fatalf("recovered %d keys, want %d", rep.KeysCounted, n)
	}
	// Pages written back before the crash carry their changes already;
	// folding a record onto them again is idempotent.
	for i := uint64(1); i <= n; i++ {
		res := r2.search(i)
		if res.Err != nil || string(res.Value) != fmt.Sprintf("s%d", i) {
			t.Fatalf("key %d after crash: err=%v val=%q", i, res.Err, res.Value)
		}
	}
}

// TestRecoverIdempotent models a crash during recovery: running Recover
// again over the already-recovered image converges to the same tree.
func TestRecoverIdempotent(t *testing.T) {
	const n = 100
	const blocks = 1 << 16
	cfg := Config{Persistence: WeakPersistence, BufferPages: 64}
	r := newJournalRig(t, cfg, blocks)
	for i := uint64(1); i <= n; i++ {
		r.insert(i, "x")
	}
	img := r.dev.ImageSnapshot()

	eng := sim.NewEngine()
	dev := nvme.NewSimDevice(eng, nvme.SimConfig{Seed: 3, NumBlocks: blocks})
	dev.LoadImage(img)
	m1, rep1, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	m2, rep2, err := Recover(dev)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if *m1 != *m2 && (m1.Root != m2.Root || m1.NumKeys != m2.NumKeys || m1.Height != m2.Height) {
		t.Fatalf("recovery not idempotent: %+v vs %+v", m1, m2)
	}
	if rep2.PagesRedone != 0 || rep2.Records != 0 {
		t.Fatalf("second recovery replayed work: %+v (first %+v)", rep2, rep1)
	}
	if m2.WALGen <= m1.WALGen-1 {
		t.Fatalf("generation fence did not advance: %d then %d", m1.WALGen, m2.WALGen)
	}
}

// TestJournalCheckpoint fills a small journal region until the tree
// checkpoints on its own, then verifies both the live tree and the
// crash-recovered image. Most inserts log a leaf record of under 50 bytes,
// so filling the region's 128 KiB takes a few thousand.
func TestJournalCheckpoint(t *testing.T) {
	const n = 4000
	const blocks = 2048 // walGeometry: 256-block region at 1792
	cfg := Config{Persistence: WeakPersistence, BufferPages: 128}
	r := newJournalRig(t, cfg, blocks)
	for i := uint64(1); i <= n; i++ {
		if err := r.insert(i, fmt.Sprintf("c%d", i)).Err; err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	st := r.tree.StatsSnapshot()
	if st.Checkpoints == 0 {
		t.Fatalf("journal region never checkpointed (appends=%d)", st.JournalAppends)
	}
	for i := uint64(1); i <= n; i++ {
		if res := r.search(i); res.Err != nil {
			t.Fatalf("key %d after checkpoints: %v", i, res.Err)
		}
	}
	img := r.dev.ImageSnapshot()
	r2, rep := crashReopen(t, img, cfg, blocks)
	if rep.KeysCounted != n {
		t.Fatalf("recovered %d keys, want %d (report %+v)", rep.KeysCounted, n, rep)
	}
	if res := r2.search(n / 2); res.Err != nil {
		t.Fatalf("key %d after crash: %v", n/2, res.Err)
	}
}

// TestJournalExplicitSync verifies a user Sync acts as a checkpoint:
// the region is emptied and recovery afterwards has nothing to replay.
func TestJournalExplicitSync(t *testing.T) {
	const n = 50
	const blocks = 1 << 16
	cfg := Config{Persistence: WeakPersistence, BufferPages: 64}
	r := newJournalRig(t, cfg, blocks)
	for i := uint64(1); i <= n; i++ {
		r.insert(i, "y")
	}
	if err := r.do(NewSync(nil)).Err; err != nil {
		t.Fatalf("sync: %v", err)
	}
	st := r.tree.StatsSnapshot()
	if st.Checkpoints == 0 {
		t.Fatal("sync did not run the checkpoint pipeline")
	}
	img := r.dev.ImageSnapshot()
	r2, rep := crashReopen(t, img, cfg, blocks)
	if rep.Records != 0 || rep.PagesRedone != 0 {
		t.Fatalf("post-sync crash left journal work: %+v", rep)
	}
	if rep.KeysCounted != n {
		t.Fatalf("recovered %d keys, want %d", rep.KeysCounted, n)
	}
	for i := uint64(1); i <= n; i++ {
		if res := r2.search(i); res.Err != nil {
			t.Fatalf("key %d: %v", i, res.Err)
		}
	}
}

// TestJournalDisabledUnchanged pins that Journal=false trees behave as
// before: no appends, no checkpoints, sync still works.
func TestJournalDisabledUnchanged(t *testing.T) {
	r := newRig(t, Config{Persistence: WeakPersistence, BufferPages: 64})
	for i := uint64(1); i <= 50; i++ {
		r.insert(i, "z")
	}
	if err := r.do(NewSync(nil)).Err; err != nil {
		t.Fatal(err)
	}
	st := r.tree.StatsSnapshot()
	if st.JournalAppends != 0 || st.Checkpoints != 0 {
		t.Fatalf("journal activity while disabled: %+v", st)
	}
	meta, err := ReadMeta(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	// The region description written by Format must survive syncs even
	// with the journal off, so a later journaled open can use it.
	if meta.WALBlocks == 0 || meta.WALStart == 0 {
		t.Fatalf("sync dropped the WAL region description: %+v", meta)
	}
}

// TestRecoverTornMeta tears page 0 and verifies recovery rebuilds it
// from the journaled meta image (journal groups include the meta page
// whenever the root moves, so a fresh tree always has one).
func TestRecoverTornMeta(t *testing.T) {
	const n = 120 // enough inserts to split the root at least once
	const blocks = 1 << 16
	cfg := Config{Persistence: WeakPersistence, BufferPages: 64}
	r := newJournalRig(t, cfg, blocks)
	for i := uint64(1); i <= n; i++ {
		r.insert(i, fmt.Sprintf("t%d", i))
	}
	img := r.dev.ImageSnapshot()
	// Tear the superblock: the crash landed mid-way through a meta write.
	torn := img[0]
	for i := 0; i < storage.PageSize/2; i++ {
		torn[i] = 0xFF
	}
	r2, rep := crashReopen(t, img, cfg, blocks)
	if !rep.MetaRepaired {
		t.Fatalf("torn meta not flagged as repaired: %+v", rep)
	}
	if rep.KeysCounted != n {
		t.Fatalf("recovered %d keys, want %d", rep.KeysCounted, n)
	}
	for i := uint64(1); i <= n; i++ {
		res := r2.search(i)
		if res.Err != nil || string(res.Value) != fmt.Sprintf("t%d", i) {
			t.Fatalf("key %d after torn-meta crash: err=%v val=%q", i, res.Err, res.Value)
		}
	}
}

// crashProbeDev is a simulated device that keeps, beside it, the image a
// crash would leave: a data write is kept from its submission on, a log
// block's new content only from its write's completion. onWrite sees
// each data-page write as it is submitted, with the image of a crash
// that kept it but no log write still in flight — an outcome the fault
// model allows. onLogRun sees each log write of more than one block as it
// is submitted, with the image before it and the blocks it carries.
type crashProbeDev struct {
	*nvme.SimDevice
	walFrom  uint64
	image    map[uint64][]byte // block slices are never written to again
	onWrite  func(crash map[uint64][]byte)
	onLogRun func(crash map[uint64][]byte, lba uint64, data []byte)
}

func (d *crashProbeDev) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	qp, err := d.SimDevice.AllocQueuePair(depth)
	return &crashProbeQP{QueuePair: qp, d: d}, err
}

type crashProbeQP struct {
	nvme.QueuePair
	d *crashProbeDev
}

func (q *crashProbeQP) Submit(c *nvme.Command) error {
	d := q.d
	if c.Op != nvme.OpWrite {
		return q.QueuePair.Submit(c)
	}
	// Keep every block the command writes, so a multi-block write is
	// probed for all of its pages, not just its first.
	lba, data := c.LBA, append([]byte(nil), c.Buf[:c.Blocks*storage.PageSize]...)
	keep := func() {
		for off := 0; off < len(data); off += storage.PageSize {
			d.image[lba+uint64(off/storage.PageSize)] = data[off : off+storage.PageSize]
		}
	}
	if d.walFrom == 0 || lba < d.walFrom {
		keep()
		if d.onWrite != nil && lba != 0 {
			d.onWrite(maps.Clone(d.image))
		}
		return q.QueuePair.Submit(c)
	}
	if d.onLogRun != nil && c.Blocks > 1 {
		d.onLogRun(maps.Clone(d.image), lba, data)
	}
	done := c.Callback
	c.Callback = func(cc nvme.Completion) {
		if cc.Err == nil {
			keep()
		}
		done(cc)
	}
	return q.QueuePair.Submit(c)
}

// TestJournalWriteAhead is the write-ahead rule under a buffer far
// smaller than the working set: rounds of 64 concurrent inserts of
// 100-byte values into a journaled tree with a 512-block log, under both
// Persistence modes — with the journal on, both ack at log durability and
// write pages back. With 4 buffer pages nearly every operation writes a
// dirty page back; with none, every page goes out as soon as it is
// buffered, before its own record is logged; with 64 and a Sync in every
// round, checkpoint snapshots meet groups still on their way to the log.
// At every data-page write the image of a crash that kept it must recover,
// with every acknowledged pair. A page that reaches the device before its
// records — one half of a split without the other, a parent before its
// new child — leaves an image that loses acknowledged pairs, or that no
// recovery can read.
func TestJournalWriteAhead(t *testing.T) {
	for _, p := range []Persistence{StrongPersistence, WeakPersistence} {
		for _, c := range []struct {
			name          string
			buffer, syncs int
		}{{"buffer=4", 4, 0}, {"buffer=0", 0, 0}, {"buffer=64+sync", 64, 1}} {
			t.Run(p.String()+"/"+c.name, func(t *testing.T) { writeAheadRig(t, p, c.buffer, c.syncs) })
		}
	}
}

func writeAheadRig(t *testing.T, p Persistence, bufferPages, syncs int) {
	const rounds, perRound = 12, 64
	eng := sim.NewEngine()
	osched := simos.New(eng, simos.Config{})
	dev := &crashProbeDev{SimDevice: nvme.NewSimDevice(eng, nvme.SimConfig{Seed: 11, NumBlocks: 1 << 12}), image: map[uint64][]byte{}}
	meta, err := Format(dev)
	if err != nil {
		t.Fatal(err)
	}
	dev.walFrom = meta.WALStart
	var tree *Tree
	th := osched.Spawn("patree", func(*simos.Thread) { tree.Run() })
	if tree, err = New(dev, Config{Persistence: p, BufferPages: bufferPages, Journal: true}, SimEnv{T: th}, meta); err != nil {
		t.Fatal(err)
	}
	if !tree.writeBack {
		t.Fatal("a journaled tree must buffer its pages and write them back")
	}
	acked := map[uint64]string{}
	crashes, failure := 0, ""
	dev.onWrite = func(crash map[uint64][]byte) {
		if failure != "" {
			return
		}
		crashes++
		if failure = recoversAcked(crash, acked); failure != "" {
			failure = fmt.Sprintf("crash at data-page write %d, %d pairs acknowledged: %s", crashes, len(acked), failure)
		}
	}
	for r := 0; r < rounds && failure == ""; r++ {
		left := perRound + syncs
		eng.After(0, func() {
			for i := 0; i < perRound; i++ {
				n := uint64(r*perRound + i)
				key, val := (n*2654435761)%1_000_003, fmt.Sprintf("%0100d", n)
				tree.Admit(NewInsert(key, []byte(val), func(o *Op) {
					if o.Res.Err != nil {
						t.Errorf("insert %d: %v", key, o.Res.Err)
					}
					acked[key] = val
					left--
				}))
				if i == perRound/2 && syncs > 0 {
					tree.Admit(NewSync(func(*Op) { left-- }))
				}
			}
		})
		for left > 0 && eng.Step() {
		}
	}
	tree.Stop()
	eng.RunFor(time.Second)
	if failure != "" {
		t.Fatal(failure)
	}
	st := tree.StatsSnapshot()
	if len(acked) != rounds*perRound || crashes < rounds*perRound/2 || st.Checkpoints == 0 {
		t.Fatalf("%d pairs acknowledged, %d data-page writes probed, %d checkpoints: the rig did not churn", len(acked), crashes, st.Checkpoints)
	}
	t.Logf("%d crash images recovered, every acknowledged pair present; %d checkpoints", crashes, st.Checkpoints)
}

// TestFaultJournalRunTorn is a crash in the middle of a WAL run: a run of
// k adjacent log blocks is one write command, and a device may land any
// subset of its blocks before power fails. Rounds of 64 concurrent
// inserts of 100-byte values into a journaled tree split leaves, so redo
// groups of several page images span blocks and go out as runs. At the
// submission of each run, every one of the 2^k images — the device as it
// stood, plus one subset of the run's blocks — must recover with every
// acknowledged pair, no value an insert did not write, and no key in two
// leaves: each operation still in flight applied whole or not at all.
func TestFaultJournalRunTorn(t *testing.T) {
	const rounds, perRound, maxRuns, maxBlocks = 8, 64, 24, 6
	eng := sim.NewEngine()
	osched := simos.New(eng, simos.Config{})
	dev := &crashProbeDev{SimDevice: nvme.NewSimDevice(eng, nvme.SimConfig{Seed: 11, NumBlocks: 1 << 12}), image: map[uint64][]byte{}}
	meta, err := Format(dev)
	if err != nil {
		t.Fatal(err)
	}
	dev.walFrom = meta.WALStart
	var tree *Tree
	th := osched.Spawn("patree", func(*simos.Thread) { tree.Run() })
	if tree, err = New(dev, Config{Persistence: StrongPersistence, BufferPages: 64, Journal: true}, SimEnv{T: th}, meta); err != nil {
		t.Fatal(err)
	}
	acked, written := map[uint64]string{}, map[uint64]string{}
	runs, images, longest, failure := 0, 0, 0, ""
	dev.onLogRun = func(crash map[uint64][]byte, lba uint64, data []byte) {
		k := len(data) / storage.PageSize
		if failure != "" || runs == maxRuns || k > maxBlocks {
			return
		}
		runs, longest = runs+1, max(longest, k)
		for landed := range 1 << k {
			img := maps.Clone(crash)
			for b := range k {
				if landed&(1<<b) != 0 {
					img[lba+uint64(b)] = data[b*storage.PageSize : (b+1)*storage.PageSize]
				}
			}
			images++
			if failure = recoversWhole(img, acked, written); failure != "" {
				failure = fmt.Sprintf("run of %d blocks at %d, blocks %0*b landed, %d pairs acknowledged: %s", k, lba, k, landed, len(acked), failure)
				return
			}
		}
	}
	for r := 0; r < rounds && failure == ""; r++ {
		left := perRound
		eng.After(0, func() {
			for i := 0; i < perRound; i++ {
				n := uint64(r*perRound + i)
				key, val := (n*2654435761)%1_000_003, fmt.Sprintf("%0100d", n)
				written[key] = val
				tree.Admit(NewInsert(key, []byte(val), func(o *Op) {
					if o.Res.Err != nil {
						t.Errorf("insert %d: %v", key, o.Res.Err)
					}
					acked[key] = val
					left--
				}))
			}
		})
		for left > 0 && eng.Step() {
		}
	}
	tree.Stop()
	eng.RunFor(time.Second)
	if failure != "" {
		t.Fatal(failure)
	}
	if st := tree.StatsSnapshot(); runs < 4 || longest < 3 || st.JournalWriteCommands >= st.JournalBlockWrites {
		t.Fatalf("%d runs probed, the longest %d blocks, %d WAL commands for %d blocks: the rig made no runs to tear",
			runs, longest, st.JournalWriteCommands, st.JournalBlockWrites)
	}
	t.Logf("%d runs of up to %d blocks, %d crash images recovered whole", runs, longest, images)
}

// recoversAcked recovers a crash image, in place, and reports what is
// wrong with it: an error, or an acknowledged pair missing or changed.
func recoversAcked(img map[uint64][]byte, acked map[uint64]string) string {
	return recoversWhole(img, acked, nil)
}

// recoversWhole is recoversAcked that also checks the image against
// written, when it is not nil: every pair the tree holds is one an
// operation wrote, and no key is in two leaves.
func recoversWhole(img map[uint64][]byte, acked, written map[uint64]string) string {
	dev := &nextProbeDev{blocks: img, size: 1 << 12}
	meta, _, err := Recover(dev)
	if err != nil {
		return err.Error()
	}
	io, err := newSetupIO(dev)
	if err != nil {
		return err.Error()
	}
	defer io.close()
	got, twice := map[uint64]string{}, []uint64(nil)
	err = walkTree(io, meta.Root, func(n *storage.Node) {
		for i, k := range n.Keys {
			if n.IsLeaf() {
				if _, dup := got[k]; dup {
					twice = append(twice, k)
				}
				got[k] = string(n.Vals[i])
			}
		}
	})
	if err != nil {
		return err.Error()
	}
	for k, v := range acked {
		if got[k] != v {
			return fmt.Sprintf("acknowledged key %d reads %q, want %q", k, got[k], v)
		}
	}
	if written == nil {
		return ""
	}
	if len(twice) > 0 {
		return fmt.Sprintf("keys %v are in two leaves", twice)
	}
	for k, v := range got {
		if written[k] != v {
			return fmt.Sprintf("key %d reads %q, which no insert wrote", k, v)
		}
	}
	return ""
}

// TestFaultCheckpointAppendFence pins the checkpoint's append fence. A
// checkpoint snapshots the dirty pages, makes them durable and then
// resets the log, retiring every record in it. An update admitted in
// between must wait for the reset: its pages are not in the snapshot, so
// records appended before the reset would be retired with nothing on the
// device to show for them. Updates are admitted with a checkpoint and
// while it runs, the device crashes after the reset lands, and every
// acknowledged update must survive recovery.
func TestFaultCheckpointAppendFence(t *testing.T) {
	const keys = 1000
	cfg := Config{Persistence: WeakPersistence, BufferPages: 1024}
	r := newJournalRig(t, cfg, 1<<12)
	acked := map[uint64]string{}
	for k := uint64(1); k <= keys; k++ {
		if err := r.insert(k, "old").Err; err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		acked[k] = "old"
	}
	// A checkpoint leaves every page clean and the log empty; a few fresh
	// updates give the next one a snapshot to write.
	if err := r.do(NewSync(nil)).Err; err != nil {
		t.Fatalf("sync: %v", err)
	}
	for k := uint64(1); k <= 8; k++ {
		if err := r.do(NewUpdate(k, []byte("mid"), nil)).Err; err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		acked[k] = "mid"
	}

	checkpoint := NewSync(nil)
	synced := false
	checkpoint.Done = func(*Op) { synced = true }
	pending := 0
	r.eng.After(0, func() { r.tree.Admit(checkpoint) })
	for i := 0; i < 20; i++ {
		// Admissions spread over the checkpoint's device round trips.
		r.eng.After(time.Duration(i)*10*time.Microsecond, func() {
			for k := uint64(i*50 + 1); k <= uint64(i*50+50); k++ {
				val := fmt.Sprintf("new%d", k)
				pending++
				r.tree.Admit(NewUpdate(k, []byte(val), func(o *Op) {
					pending--
					if o.Res.Err == nil {
						acked[k] = val
					}
				}))
			}
		})
	}
	for (!synced || pending > 0) && r.eng.Now() < sim.Time(time.Second) && r.eng.Step() {
	}
	if !synced || checkpoint.Res.Err != nil {
		t.Fatalf("checkpoint done %v, err %v", synced, checkpoint.Res.Err)
	}
	if pending > 0 {
		t.Errorf("%d updates never completed", pending)
	}
	if msg := recoversAcked(r.dev.ImageSnapshot(), acked); msg != "" {
		t.Fatal(msg)
	}
}
