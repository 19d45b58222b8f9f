package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// ─── The QD-1 reference ─────────────────────────────────────────────────

// qd1 is recovery's I/O as it was before the batched walk: one command
// submitted, the queue pair spun on until it completes, then the next.
type qd1 struct {
	dev nvme.Device
	qp  nvme.QueuePair
}

func (r *qd1) do(cmd *nvme.Command) error {
	done := false
	var ioErr error
	cmd.Callback = func(c nvme.Completion) { done = true; ioErr = c.Err }
	if err := r.qp.Submit(cmd); err != nil {
		return err
	}
	if sd, ok := r.dev.(interface{ Advance() }); ok {
		sd.Advance()
	}
	for deadline := time.Now().Add(10 * time.Second); !done; {
		r.qp.Probe(0)
		if time.Now().After(deadline) {
			return errors.New("reference recovery I/O timed out")
		}
	}
	return ioErr
}

func (r *qd1) read(lba, blocks uint64, buf []byte) error {
	return r.do(&nvme.Command{Op: nvme.OpRead, LBA: lba, Blocks: int(blocks), Buf: buf})
}

func (r *qd1) write(id storage.PageID, data []byte) error {
	return r.do(&nvme.Command{Op: nvme.OpWrite, LBA: uint64(id), Blocks: 1, Buf: data})
}

func (r *qd1) flush() error { return r.do(&nvme.Command{Op: nvme.OpFlush}) }

// recoverQD1 is the reference the batched Recover is held to: the same
// sequence of checks, every command alone on the queue pair. It is kept
// deliberately plain — one read, one decode, one write at a time — so that
// what it leaves on the device is beyond argument.
func recoverQD1(dev nvme.Device) (*storage.Meta, *RecoverReport, error) {
	rep := &RecoverReport{}
	qp, err := dev.AllocQueuePair(32)
	if err != nil {
		return nil, nil, err
	}
	defer qp.Free()
	io := &qd1{dev: dev, qp: qp}
	pageSize := uint64(storage.PageSize)

	metaBuf := make([]byte, storage.PageSize)
	if err := io.read(0, 1, metaBuf); err != nil {
		return nil, nil, err
	}
	meta, metaErr := storage.DecodeMeta(metaBuf)
	var walStart, walBlocks uint64
	var fenceGen uint32
	if metaErr == nil {
		if meta.WALBlocks == 0 || meta.WALStart == 0 {
			return meta, rep, nil
		}
		walStart, walBlocks, fenceGen = meta.WALStart, meta.WALBlocks, meta.WALGen
	} else if walStart, walBlocks = walGeometry(dev.NumBlocks()); walBlocks == 0 {
		return nil, nil, fmt.Errorf("unreadable meta and no journal region: %w", metaErr)
	}
	rep.Journaled = true

	region := make([]byte, walBlocks*pageSize)
	for off := uint64(0); off < walBlocks; off += 128 {
		n := min(128, walBlocks-off)
		if err := io.read(walStart+off, n, region[off*pageSize:(off+n)*pageSize]); err != nil {
			return nil, nil, err
		}
	}
	records, gen := wal.Recover(region)
	rep.Records = len(records)
	if gen < fenceGen {
		rep.StaleSkipped = len(records)
		records = nil
	} else if len(records) > 0 {
		rep.Generation = gen
	}

	var redo, group []redoRecord
	var groupSeq uint64
	for _, rec := range records {
		r, err := decodeRecord(rec)
		if err != nil {
			return nil, nil, err
		}
		seq, idx, cnt := r.seq, r.idx, r.cnt
		if cnt < 1 || idx >= cnt {
			break
		}
		if idx == 0 {
			group, groupSeq = group[:0], seq
		} else if seq != groupSeq || idx != len(group) {
			group = group[:0]
			continue
		}
		group = append(group, r)
		if idx == cnt-1 {
			redo = append(redo, group...)
			rep.Groups++
			group = group[:0]
		}
	}
	rep.DroppedTail += len(group)
	for _, r := range redo {
		if r.image != nil && !storage.VerifyPage(r.id, r.image) {
			return nil, nil, fmt.Errorf("journaled image for page %d fails verification", r.id)
		}
	}

	// One page at a time, in order of first appearance: its newest image
	// — or, when the log holds none, what the device has — and the leaf
	// records logged after it, applied to the page's pairs as a map.
	var pages []storage.PageID
	for _, r := range redo {
		if !slices.Contains(pages, r.id) {
			pages = append(pages, r.id)
		}
	}
	var journaledMeta []byte
	for _, id := range pages {
		var image []byte
		var after []redoRecord
		for _, r := range redo {
			switch {
			case r.id != id:
			case r.image != nil:
				image, after = r.image, nil
			default:
				after = append(after, r)
			}
		}
		if image == nil {
			image = make([]byte, storage.PageSize)
			if err := io.read(uint64(id), 1, image); err != nil {
				return nil, nil, err
			}
			rep.BaseReads++
		}
		if len(after) > 0 {
			if !storage.VerifyPage(id, image) {
				return nil, nil, fmt.Errorf("base of page %d: %w", id, storage.ErrCorruptPage)
			}
			n, err := storage.DecodeNode(id, image)
			if err != nil {
				return nil, nil, err
			}
			pairs := map[uint64][]byte{}
			for i, k := range n.Keys {
				pairs[k] = n.Vals[i]
			}
			for _, r := range after {
				if r.del {
					delete(pairs, r.key)
				} else {
					pairs[r.key] = r.value
				}
			}
			n.Keys, n.Vals = nil, nil
			for k := range pairs {
				n.Keys = append(n.Keys, k)
			}
			slices.Sort(n.Keys)
			for _, k := range n.Keys {
				n.Vals = append(n.Vals, pairs[k])
			}
			image = n.Encode()
		}
		if id == 0 {
			journaledMeta = image
		}
		if err := io.write(id, image); err != nil {
			return nil, nil, err
		}
		rep.PagesRedone++
	}

	if metaErr != nil {
		if journaledMeta == nil {
			return nil, nil, fmt.Errorf("unreadable meta and no journaled replacement: %w", metaErr)
		}
		if meta, err = storage.DecodeMeta(journaledMeta); err != nil {
			return nil, nil, err
		}
		rep.MetaRepaired = true
	} else if journaledMeta != nil {
		if rebuilt, err := storage.DecodeMeta(journaledMeta); err == nil {
			meta = rebuilt
		}
	}
	if meta.WALStart == 0 || meta.WALBlocks == 0 {
		meta.WALStart, meta.WALBlocks = walStart, walBlocks
	}

	var keys uint64
	maxID := meta.Root
	buf := make([]byte, storage.PageSize)
	seen := uint64(0)
	for level := []storage.PageID{meta.Root}; len(level) > 0; {
		var next []storage.PageID
		for _, id := range level {
			if seen++; seen > dev.NumBlocks() {
				return nil, nil, errors.New("tree walk exceeds device size (cycle?)")
			}
			if err := io.read(uint64(id), 1, buf); err != nil {
				return nil, nil, err
			}
			if !storage.VerifyPage(id, buf) {
				return nil, nil, fmt.Errorf("page %d unreadable after replay: %w", id, storage.ErrCorruptPage)
			}
			n, err := storage.DecodeNode(id, buf)
			if err != nil {
				return nil, nil, fmt.Errorf("page %d unreadable after replay: %w", id, err)
			}
			maxID = max(maxID, id)
			if n.IsLeaf() {
				keys += uint64(len(n.Keys))
			}
			next = append(next, n.Children...)
		}
		level = next
	}
	rep.KeysCounted = keys
	if meta.NumKeys != keys {
		meta.NumKeys = keys
		rep.MetaRepaired = true
	}
	if meta.Watermark < maxID+1 {
		meta.Watermark = maxID + 1
		rep.MetaRepaired = true
	}

	meta.WALGen = max(fenceGen, gen) + 1
	if err := io.write(0, meta.Encode()); err != nil {
		return nil, nil, err
	}
	if err := io.flush(); err != nil {
		return nil, nil, err
	}
	if err := io.write(storage.PageID(meta.WALStart), make([]byte, storage.PageSize)); err != nil {
		return nil, nil, err
	}
	if err := io.flush(); err != nil {
		return nil, nil, err
	}
	return meta, rep, nil
}

// ─── Test devices and images ────────────────────────────────────────────

// hookDev wraps a device for the recovery tests. It can deliver each
// probe's completions in reverse, complete chosen commands with an error
// instead of executing them, and it keeps the books the drain rule is
// checked against: commands live at Free, callbacks delivered after it.
type hookDev struct {
	nvme.Device
	reverse bool
	// fail, when set, sees every command in submission order (n counts
	// from 1) and returns the status to complete it with, nil to pass it on.
	fail func(n int, cmd *nvme.Command) error

	submitted  int
	live       int // accepted, callback not yet delivered
	liveAtFree int
	late       int // callbacks delivered after Free
}

func (d *hookDev) Advance() {
	if a, ok := d.Device.(interface{ Advance() }); ok {
		a.Advance()
	}
}

func (d *hookDev) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	inner, err := d.Device.AllocQueuePair(depth)
	if err != nil {
		return nil, err
	}
	return &hookQP{d: d, inner: inner}, nil
}

type hookCQE struct {
	cb func(nvme.Completion)
	c  nvme.Completion
}

type hookQP struct {
	d     *hookDev
	inner nvme.QueuePair
	held  []hookCQE
	freed bool
}

func (q *hookQP) Submit(cmd *nvme.Command) error {
	d := q.d
	orig := cmd.Callback
	if d.fail != nil {
		if err := d.fail(d.submitted+1, cmd); err != nil {
			d.submitted++
			d.live++
			q.held = append(q.held, hookCQE{orig, nvme.Completion{Cmd: cmd, Err: err}})
			return nil
		}
	}
	cmd.Callback = func(c nvme.Completion) { q.held = append(q.held, hookCQE{orig, c}) }
	if err := q.inner.Submit(cmd); err != nil {
		cmd.Callback = orig
		return err
	}
	d.submitted++
	d.live++
	return nil
}

func (q *hookQP) Probe(int) int {
	q.inner.Probe(0)
	batch := q.held
	q.held = nil
	for i := range batch {
		e := batch[i]
		if q.d.reverse {
			e = batch[len(batch)-1-i]
		}
		q.d.live--
		if q.freed {
			q.d.late++
		}
		e.cb(e.c)
	}
	return len(batch)
}

func (q *hookQP) Outstanding() int { return q.inner.Outstanding() + len(q.held) }

func (q *hookQP) Free() error {
	q.freed = true
	q.d.liveAtFree += q.d.live
	return q.inner.Free()
}

const recoverTestBlocks = 1 << 16

// simWith returns a fresh simulated device holding img.
func simWith(img map[uint64][]byte, cfg nvme.SimConfig) *nvme.SimDevice {
	cfg.Seed, cfg.NumBlocks = 12, recoverTestBlocks
	dev := nvme.NewSimDevice(sim.NewEngine(), cfg)
	dev.LoadImage(img)
	return dev
}

// bulkImage is a bulk-loaded tree of n keys with a journal region.
func bulkImage(t testing.TB, n int) map[uint64][]byte {
	t.Helper()
	pairs := make([]KV, n)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(i+1) * 3, Value: []byte(fmt.Sprintf("v%07d", i))}
	}
	dev := simWith(nil, nvme.SimConfig{})
	meta, err := BulkLoad(dev, pairs, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if meta.WALBlocks == 0 {
		t.Fatal("bulk-loaded image got no journal region")
	}
	return dev.ImageSnapshot()
}

// crashImage is what a journaled tree leaves on the device when it stops
// dead after n acknowledged inserts (journal_test.go's rig).
func crashImage(t *testing.T, cfg Config, n int, sync bool) map[uint64][]byte {
	t.Helper()
	r := newJournalRig(t, cfg, recoverTestBlocks)
	for i := uint64(1); i <= uint64(n); i++ {
		if err := r.insert(i*7, fmt.Sprintf("v%d", i)).Err; err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if sync {
		if err := r.do(NewSync(nil)).Err; err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	return r.dev.ImageSnapshot()
}

type recoverImage struct {
	name string
	img  map[uint64][]byte
}

func recoverImages(t *testing.T) []recoverImage {
	t.Helper()
	weak := Config{Persistence: WeakPersistence, BufferPages: 64}
	torn := crashImage(t, weak, 120, false)
	for i := 0; i < storage.PageSize/2; i++ {
		torn[0][i] = 0xFF
	}
	// Bulk loads of 5, 200, 3 000 and 20 000 keys are trees of height 1
	// to 4; the last two have levels narrower (the root, its children)
	// and far wider (the leaves) than the queue depth.
	return []recoverImage{
		{"bulk-h1", bulkImage(t, 5)},
		{"bulk-h2", bulkImage(t, 200)},
		{"bulk-h3", bulkImage(t, 3000)},
		{"bulk-h4", bulkImage(t, 20000)},
		{"crash-weak", crashImage(t, weak, 300, false)},
		{"crash-weak-long", crashImage(t, weak, 2500, false)},
		{"crash-strong", crashImage(t, Config{Persistence: StrongPersistence, BufferPages: 64}, 200, false)},
		{"crash-after-sync", crashImage(t, weak, 50, true)},
		{"torn-meta", torn},
	}
}

// ─── The batched Recover against the reference ──────────────────────────

func TestRecoverMatchesQD1Reference(t *testing.T) {
	devices := []struct {
		name string
		make func(t *testing.T, img map[uint64][]byte) (dev nvme.Device, snapshot func() map[uint64][]byte)
	}{
		{"sim", func(t *testing.T, img map[uint64][]byte) (nvme.Device, func() map[uint64][]byte) {
			d := simWith(img, nvme.SimConfig{})
			return d, d.ImageSnapshot
		}},
		{"sim-depth-4", func(t *testing.T, img map[uint64][]byte) (nvme.Device, func() map[uint64][]byte) {
			d := simWith(img, nvme.SimConfig{MaxQueueDepth: 4})
			return d, d.ImageSnapshot
		}},
		{"sim-reversed", func(t *testing.T, img map[uint64][]byte) (nvme.Device, func() map[uint64][]byte) {
			d := simWith(img, nvme.SimConfig{})
			return &hookDev{Device: d, reverse: true}, d.ImageSnapshot
		}},
		{"ram", func(t *testing.T, img map[uint64][]byte) (nvme.Device, func() map[uint64][]byte) {
			d := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: recoverTestBlocks})
			t.Cleanup(func() { d.Close() })
			d.LoadImage(img)
			return d, d.ImageSnapshot
		}},
	}
	for _, im := range recoverImages(t) {
		ref := simWith(im.img, nvme.SimConfig{})
		wantMeta, wantRep, err := recoverQD1(ref)
		if err != nil {
			t.Fatalf("%s: reference: %v", im.name, err)
		}
		wantImg := ref.ImageSnapshot()
		for _, dv := range devices {
			t.Run(im.name+"/"+dv.name, func(t *testing.T) {
				dev, snapshot := dv.make(t, im.img)
				meta, rep, err := Recover(dev)
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if *meta != *wantMeta {
					t.Errorf("meta %+v, reference %+v", *meta, *wantMeta)
				}
				if *rep != *wantRep {
					t.Errorf("report %+v, reference %+v", *rep, *wantRep)
				}
				if got := snapshot(); !reflect.DeepEqual(got, wantImg) {
					t.Errorf("device image differs from the reference (%d blocks, reference %d)", len(got), len(wantImg))
				}
				// A second pass over the recovered image replays nothing.
				_, rep2, err := Recover(dev)
				if err != nil {
					t.Fatalf("second recover: %v", err)
				}
				if rep2.PagesRedone != 0 || rep2.Groups != 0 || rep2.KeysCounted != rep.KeysCounted {
					t.Errorf("second recover replayed work: %+v", *rep2)
				}
			})
		}
	}
}

// errCrash is a status no retry budget covers: the device is gone.
var errCrash = errors.New("test: device crashed")

// crashRef is an undisturbed recovery of img by the QD-1 reference, and
// how many commands Recover takes over it, for crashing Recover part way.
type crashRef struct {
	img   map[uint64][]byte
	meta  *storage.Meta
	rep   *RecoverReport
	image map[uint64][]byte
	total int
}

func newCrashRef(t *testing.T, img map[uint64][]byte) *crashRef {
	t.Helper()
	ref := simWith(img, nvme.SimConfig{})
	meta, rep, err := recoverQD1(ref)
	if err != nil {
		t.Fatal(err)
	}
	count := &hookDev{Device: simWith(img, nvme.SimConfig{})}
	if _, _, err := Recover(count); err != nil {
		t.Fatal(err)
	}
	return &crashRef{img: img, meta: meta, rep: rep, image: ref.ImageSnapshot(), total: count.submitted}
}

// crashAt kills the device at command at of a recovery and runs it again
// over what was left: before the fence (the last four commands: meta,
// flush, zero, flush) the second run must end exactly where an
// undisturbed one does, and once the fence is durable it must find
// nothing left to replay.
func (c *crashRef) crashAt(t *testing.T, at int) {
	t.Helper()
	sd := simWith(c.img, nvme.SimConfig{})
	dying := &hookDev{Device: sd, fail: func(n int, _ *nvme.Command) error {
		if n >= at {
			return errCrash
		}
		return nil
	}}
	if _, _, err := Recover(dying); !errors.Is(err, errCrash) {
		t.Fatalf("crash at %d: recover over a dying device: %v, want the crash", at, err)
	}
	if dying.liveAtFree != 0 || dying.late != 0 {
		t.Fatalf("crash at %d: %d commands in flight when Recover returned, %d callbacks after", at, dying.liveAtFree, dying.late)
	}
	meta, rep, err := Recover(sd)
	if err != nil {
		t.Fatalf("crash at %d: recover after the crash: %v", at, err)
	}
	if at <= c.total-3 {
		// The crashed run never wrote the fenced superblock.
		if *meta != *c.meta || *rep != *c.rep || !reflect.DeepEqual(sd.ImageSnapshot(), c.image) {
			t.Fatalf("crash at %d: meta %+v report %+v, reference %+v %+v", at, *meta, *rep, *c.meta, *c.rep)
		}
		return
	}
	// The fenced superblock is durable: the log is retired.
	if rep.PagesRedone != 0 || rep.KeysCounted != c.rep.KeysCounted || meta.Root != c.meta.Root || meta.WALGen <= c.meta.WALGen {
		t.Fatalf("crash at %d past the fence: meta %+v report %+v, reference %+v %+v", at, *meta, *rep, *c.meta, *c.rep)
	}
}

// TestRecoverCrashMidRecovery kills the device at chosen commands of a
// recovery and runs it again over what was left (crashRef.crashAt). The
// subtests are named by place, not number: how many commands a recovery
// takes follows from the journal's record format.
func TestRecoverCrashMidRecovery(t *testing.T) {
	ref := newCrashRef(t, crashImage(t, Config{Persistence: WeakPersistence, BufferPages: 64}, 2500, false))
	total := ref.total
	for _, c := range []struct {
		name string
		at   int
	}{
		{"2", 2}, {"40", 40}, {"third", total / 3}, {"half", total / 2}, {"walk-end", total - 4},
		{"meta", total - 3}, {"meta-flush", total - 2}, {"zero", total - 1}, {"zero-flush", total},
	} {
		t.Run("at="+c.name, func(t *testing.T) { ref.crashAt(t, c.at) })
	}
}

// ─── Folding leaf records ───────────────────────────────────────────────

// withLog returns a copy of img whose journal region holds recs, framed
// as the live generation, as a crash would leave it.
func withLog(t *testing.T, img map[uint64][]byte, recs ...[]byte) map[uint64][]byte {
	t.Helper()
	meta, err := storage.DecodeMeta(img[0])
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]byte, len(img))
	for lba, b := range img {
		out[lba] = append([]byte(nil), b...)
	}
	l := wal.NewLog(storage.PageSize, meta.WALBlocks)
	l.SetGeneration(meta.WALGen)
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush(func(bi uint64, data []byte) { out[meta.WALStart+bi] = append([]byte(nil), data...) })
	return out
}

// pathTo descends img to the leaf covering key: the leaf and its parent.
func pathTo(t *testing.T, img map[uint64][]byte, key uint64) (leaf, parent *storage.Node) {
	t.Helper()
	meta, err := storage.DecodeMeta(img[0])
	if err != nil {
		t.Fatal(err)
	}
	for id := meta.Root; ; {
		if !storage.VerifyPage(id, img[uint64(id)]) {
			t.Fatalf("page %d fails verification", id)
		}
		n, err := storage.DecodeNode(id, img[uint64(id)])
		if err != nil {
			t.Fatal(err)
		}
		if n.IsLeaf() {
			return n, parent
		}
		parent, id = n, n.Children[n.ChildIndex(key)]
	}
}

// TestRecoverFold: leaf records fold onto the page they name — onto its
// device image when the live log has no image of it, onto the newest
// image otherwise — and every case ends where the QD-1 reference does,
// with the pairs the records say, and recovers again to nothing to do.
func TestRecoverFold(t *testing.T) {
	const n = 200 // keys 3, 6, …, 600 over leaves of a tree of height 2
	base := bulkImage(t, n)
	basePairs := map[uint64]string{}
	for i := 0; i < n; i++ {
		basePairs[uint64(i+1)*3] = fmt.Sprintf("v%07d", i)
	}
	p, parent := pathTo(t, base, 300)
	q, _ := pathTo(t, base, 30)
	if p.ID == q.ID || parent == nil {
		t.Fatal("keys 30 and 300 share a leaf, or the tree has one level")
	}
	k1, k2 := p.Keys[1], p.Keys[2]

	// newer: the device's P already carries the first two records, as a
	// strong tree's in-place write leaves it.
	newer := func() map[uint64][]byte {
		img := withLog(t, base, setRecord(1, p.ID, k1, []byte("a")), setRecord(2, p.ID, k1, []byte("b")), setRecord(3, p.ID, k1+1, []byte("c")))
		landed := cloneNode(p)
		landed.InsertLeaf(k1, []byte("b"))
		img[uint64(p.ID)] = landed.Encode()
		return img
	}

	// split: records on P — one of a key the split moves right — then P
	// splits (an image group of P, its new right sibling and the parent),
	// then records on both halves and on Q.
	split := func() (map[uint64][]byte, map[uint64]string) {
		meta, _ := storage.DecodeMeta(base[0])
		rightID := storage.PageID(meta.Watermark)
		last := p.Keys[len(p.Keys)-1]
		left := cloneNode(p)
		left.InsertLeaf(k1, []byte("x"))
		left.InsertLeaf(last, []byte("y"))
		sep, right := left.SplitLeaf(rightID)
		up := cloneNode(parent)
		up.InsertInner(sep, rightID)
		img := withLog(t, base,
			setRecord(1, p.ID, k1, []byte("x")),
			setRecord(2, p.ID, last, []byte("y")),
			encodeRecord(3, 0, 3, p.ID, left.Encode()),
			encodeRecord(3, 1, 3, rightID, right.Encode()),
			encodeRecord(3, 2, 3, up.ID, up.Encode()),
			setRecord(4, p.ID, left.Keys[0]+1, []byte("l")),
			setRecord(5, rightID, right.Keys[0]+1, []byte("r")),
			deleteRecord(6, q.ID, q.Keys[0]),
			deleteRecord(7, rightID, right.Keys[1]))
		want := map[uint64]string{k1: "x", last: "y", left.Keys[0] + 1: "l", right.Keys[0] + 1: "r"}
		want[q.Keys[0]], want[right.Keys[1]] = "", ""
		return img, want
	}
	splitImg, splitWant := split()

	for _, c := range []struct {
		name          string
		img           map[uint64][]byte
		want          map[uint64]string // "" deletes
		bases, redone int
	}{
		{"leaf records only", withLog(t, base,
			setRecord(1, p.ID, k1, []byte("new")), setRecord(2, p.ID, k1+1, []byte("ins")), deleteRecord(3, p.ID, k2)),
			map[uint64]string{k1: "new", k1 + 1: "ins", k2: ""}, 1, 1},
		{"delete of a key the base lacks", withLog(t, base, deleteRecord(1, p.ID, k1+1), deleteRecord(2, q.ID, q.Keys[0]+1)),
			nil, 2, 2},
		{"base newer than some records", newer(), map[uint64]string{k1: "b", k1 + 1: "c"}, 1, 1},
		{"leaf, split image, leaf", splitImg, splitWant, 1, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := simWith(c.img, nvme.SimConfig{})
			wantMeta, wantRep, err := recoverQD1(ref)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			dev := simWith(c.img, nvme.SimConfig{})
			meta, rep, err := Recover(dev)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if *meta != *wantMeta || *rep != *wantRep || !reflect.DeepEqual(dev.ImageSnapshot(), ref.ImageSnapshot()) {
				t.Fatalf("meta %+v report %+v, reference %+v %+v", *meta, *rep, *wantMeta, *wantRep)
			}
			if rep.BaseReads != c.bases || rep.PagesRedone != c.redone {
				t.Errorf("%d base reads, %d pages redone, want %d and %d", rep.BaseReads, rep.PagesRedone, c.bases, c.redone)
			}
			want := map[uint64]string{}
			for k, v := range basePairs {
				want[k] = v
			}
			for k, v := range c.want {
				if want[k] = v; v == "" {
					delete(want, k)
				}
			}
			got := map[uint64]string{}
			for k, v := range collectFromDevice(t, dev, meta) {
				got[k] = string(v)
			}
			if !reflect.DeepEqual(got, want) || rep.KeysCounted != uint64(len(want)) {
				t.Errorf("recovered %d pairs (counted %d), want %d: the fold lost or invented a change", len(got), rep.KeysCounted, len(want))
			}
			if _, rep2, err := Recover(dev); err != nil || rep2.PagesRedone != 0 || rep2.KeysCounted != rep.KeysCounted {
				t.Errorf("second recover: %v, %+v", err, rep2)
			}
		})
	}

	// A crash at any command of the split case's recovery from the end of
	// the log scan on — a base read, a page written before the crash and
	// read as a base after it, the walk, the fence — and a second run
	// still ends where the reference does. Its last 40 commands are those
	// and a few of the scan's.
	t.Run("crash mid-recovery", func(t *testing.T) {
		ref := newCrashRef(t, splitImg)
		for at := ref.total - 40; at <= ref.total; at++ {
			ref.crashAt(t, at)
		}
	})
}

// TestRecoverReadErrorMidBatch fails one page read in the middle of the
// widest level, over a RAM device whose goroutines complete the rest of
// the batch whenever they like: the error comes back, and by then every
// command has been drained — none is in flight with a buffer Recover has
// dropped, none calls back later. Run under -race.
func TestRecoverReadErrorMidBatch(t *testing.T) {
	img := bulkImage(t, 20000)
	ram := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: recoverTestBlocks})
	defer ram.Close()
	ram.LoadImage(img)
	boom := errors.New("test: unrecoverable read error")
	dev := &hookDev{Device: ram, fail: func(_ int, cmd *nvme.Command) error {
		if cmd.Op == nvme.OpRead && cmd.LBA == 700 {
			return boom
		}
		return nil
	}}
	if _, _, err := Recover(dev); !errors.Is(err, boom) {
		t.Fatalf("recover: %v, want the injected read error", err)
	}
	if dev.liveAtFree != 0 {
		t.Fatalf("%d commands still in flight when Recover returned", dev.liveAtFree)
	}
	if !reflect.DeepEqual(ram.ImageSnapshot(), img) {
		t.Fatal("a failed recovery of a clean image wrote to the device")
	}
}

// TestSetupIORetriesTransient pins the setup budget: a command that meets
// a transient status is reissued up to setupRetries times, a page whose
// checksum fails counts as one, and beyond the budget the status is the
// caller's.
func TestSetupIORetriesTransient(t *testing.T) {
	img := bulkImage(t, 3000)
	for _, tc := range []struct {
		name     string
		failures int
		status   error
		wantErr  error
	}{
		{"media-within-budget", setupRetries, nvme.ErrMedia, nil},
		{"timeout-within-budget", setupRetries, nvme.ErrTimeout, nil},
		{"media-beyond-budget", setupRetries + 1, nvme.ErrMedia, nvme.ErrMedia},
		{"bitrot-within-budget", setupRetries, nil, nil},
		{"bitrot-beyond-budget", setupRetries + 1, nil, errCorruptRead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sd := simWith(img, nvme.SimConfig{})
			const lba = 60 // a leaf in the middle of a level
			seen := 0
			var clean []byte
			dev := &hookDev{Device: sd, fail: func(_ int, cmd *nvme.Command) error {
				if cmd.Op != nvme.OpRead || cmd.LBA != lba {
					return nil
				}
				if seen++; tc.status != nil && seen <= tc.failures {
					return tc.status
				}
				if tc.status == nil { // bit rot: damage the image for the first reads, heal it after
					if clean == nil {
						clean = make([]byte, storage.PageSize)
						sd.ReadAt(lba, clean)
					}
					blk := append([]byte(nil), clean...)
					if seen <= tc.failures {
						blk[100] ^= 0x10
					}
					sd.WriteAt(lba, blk)
				}
				return nil
			}}
			_, rep, err := Recover(dev)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("recover: %v, want %v", err, tc.wantErr)
			}
			if err == nil && rep.KeysCounted != 3000 {
				t.Fatalf("recovered %d keys, want 3000", rep.KeysCounted)
			}
			if want := min(tc.failures, setupRetries) + 1; seen != want {
				t.Fatalf("page %d read %d times, want %d", lba, seen, want)
			}
			if dev.liveAtFree != 0 {
				t.Fatalf("%d commands in flight when Recover returned", dev.liveAtFree)
			}
		})
	}
}

// TestFaultRecoverBaseReadRot rots the device image of a page the log
// holds leaf records for: its redo base read fails its checksum and is
// re-read within the setup budget, so the records fold onto the clean
// base, and beyond the budget recovery fails rather than fold onto rot.
func TestFaultRecoverBaseReadRot(t *testing.T) {
	base := bulkImage(t, 200)
	p, _ := pathTo(t, base, 300)
	k := p.Keys[1]
	img := withLog(t, base, setRecord(1, p.ID, k, []byte("new")))
	for _, tc := range []struct {
		name     string
		failures int
		wantErr  error
	}{
		{"within-budget", setupRetries, nil},
		{"beyond-budget", setupRetries + 1, errCorruptRead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sd := simWith(img, nvme.SimConfig{})
			lba := uint64(p.ID)
			rotten := append([]byte(nil), img[lba]...)
			rotten[100] ^= 0x10
			sd.WriteAt(lba, rotten)
			seen := 0
			dev := &hookDev{Device: sd, fail: func(_ int, cmd *nvme.Command) error {
				if cmd.Op == nvme.OpRead && cmd.LBA == lba {
					if seen++; seen == tc.failures+1 {
						sd.WriteAt(lba, img[lba]) // heal it for the next read
					}
				}
				return nil
			}}
			meta, rep, err := Recover(dev)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("recover: %v, want %v", err, tc.wantErr)
			}
			if err != nil {
				if seen != setupRetries+1 {
					t.Fatalf("base read %d times, want %d", seen, setupRetries+1)
				}
				return
			}
			// The base reads, then the walk reads the redone page once.
			if seen != tc.failures+2 || rep.BaseReads != 1 {
				t.Fatalf("page %d read %d times (%d base reads), want %d and 1", lba, seen, rep.BaseReads, tc.failures+2)
			}
			got := collectFromDevice(t, sd, meta)
			if string(got[k]) != "new" || len(got) != 200 {
				t.Fatalf("recovered %d pairs, key %d = %q; want 200 and the record's value", len(got), k, got[k])
			}
		})
	}
}

// TestRecoverUnformatted pins which devices Recover declares free to
// format: only ones whose page 0 does not decode and whose journal holds
// no replacement. A device error on page 0 is an error.
func TestRecoverUnformatted(t *testing.T) {
	blank := simWith(nil, nvme.SimConfig{})
	if _, _, err := Recover(blank); !errors.Is(err, ErrUnformatted) {
		t.Fatalf("blank device: %v, want ErrUnformatted", err)
	}
	img := bulkImage(t, 200)
	dead := &hookDev{Device: simWith(img, nvme.SimConfig{}), fail: func(_ int, cmd *nvme.Command) error {
		if cmd.LBA == 0 {
			return nvme.ErrMedia
		}
		return nil
	}}
	if _, _, err := Recover(dead); !errors.Is(err, nvme.ErrMedia) || errors.Is(err, ErrUnformatted) {
		t.Fatalf("unreadable page 0: %v, want the media error and not ErrUnformatted", err)
	}
	if _, err := ReadMeta(dead); !errors.Is(err, nvme.ErrMedia) {
		t.Fatalf("ReadMeta over an unreadable page 0: %v, want the media error", err)
	}
	newer := storage.Meta{Root: 1, Height: 1, Watermark: 2}
	page := newer.Encode()
	page[1]++ // a superblock version this build does not read, resealed
	copy(page[12:16], make([]byte, 4))
	binary.LittleEndian.PutUint32(page[12:16], crc32.Checksum(page, crc32.MakeTable(crc32.Castagnoli)))
	img[0] = page
	if _, _, err := Recover(simWith(img, nvme.SimConfig{})); err == nil || errors.Is(err, ErrUnformatted) {
		t.Fatalf("superblock of another version: %v, want an error that is not ErrUnformatted", err)
	}
}

// BenchmarkRecover is a restart of the benchmark's embedded image: 50 000
// bulk-loaded keys on a RAM device, the 8192-block journal region read and
// every page of the tree verified. Recover is idempotent, so every
// iteration does the same work.
func BenchmarkRecover(b *testing.B) {
	pairs := make([]KV, 50000)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(i + 1), Value: make([]byte, 100)}
	}
	dev := nvme.NewRAMDevice(nvme.RAMConfig{})
	defer dev.Close()
	meta, err := BulkLoad(dev, pairs, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	pages := float64(meta.Watermark - 1) // a bulk load leaves no page unreachable
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rep, err := Recover(dev); err != nil || rep.KeysCounted != uint64(len(pairs)) {
			b.Fatalf("recover: %v (%+v)", err, rep)
		}
	}
	b.ReportMetric(pages*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
}
