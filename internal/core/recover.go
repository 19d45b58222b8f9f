package core

import (
	"errors"
	"fmt"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// walGeometry carves a journal region out of the top of a device:
// one-eighth of the blocks, clamped to [256, 8192]. Devices too small to
// spare half their capacity get no region (and therefore no journal).
func walGeometry(numBlocks uint64) (start, blocks uint64) {
	blocks = numBlocks / 8
	if blocks > 8192 {
		blocks = 8192
	}
	if blocks < 256 {
		blocks = 256
	}
	if blocks >= numBlocks/2 {
		return 0, 0
	}
	return numBlocks - blocks, blocks
}

// RecoverReport describes what Recover found and did.
type RecoverReport struct {
	// Journaled reports whether a journal region was present and scanned.
	Journaled bool
	// Generation is the journal generation whose records were replayed
	// (0 when the region held nothing live).
	Generation uint32
	// Records is the number of valid journal records scanned.
	Records int
	// Groups is the number of complete operation groups replayed.
	Groups int
	// DroppedTail is the number of trailing records discarded because
	// their group was incomplete (a crash mid-append).
	DroppedTail int
	// StaleSkipped counts records fenced out by the meta page's
	// generation watermark (retired by a checkpoint before the crash).
	StaleSkipped int
	// PagesRedone is the number of pages written back, each once.
	PagesRedone int
	// BaseReads is the number of those pages read from the device to fold
	// leaf records onto, because the live log holds no image of them.
	BaseReads int
	// KeysCounted is the key count established by the verification walk.
	KeysCounted uint64
	// MetaRepaired reports whether the meta page had to be rebuilt (torn
	// superblock recovered from a journaled image or the walk).
	MetaRepaired bool
}

// ErrUnformatted is Recover's verdict on a device that holds no tree:
// page 0 does not decode as a superblock and the journal region, if the
// device has room for one, holds no replacement image. It is the only
// outcome after which formatting destroys nothing.
var ErrUnformatted = errors.New("core: device holds no tree")

// Recover replays the journal region of a crashed device image and
// verifies the resulting tree, leaving the device in a state a fresh Tree
// can open. It is idempotent: running it twice (a crash during recovery)
// converges to the same image.
//
// The sequence is: read the superblock (tolerating a torn one — its
// replacement may be sitting in the journal); scan the WAL region (its
// first block only, when that holds no frame: an empty log); drop
// record groups fenced out by the superblock's generation watermark and
// any incomplete trailing group (a live record of another format is
// ErrJournalFormat, with nothing written); fold the surviving records per
// page in log order and write each redone page once;
// then walk the tree from the root, discarding nothing but verifying
// every reachable page decodes (a torn page that escaped the journal is a
// hard error — it would mean an acknowledged write was lost), recounting
// keys and the page-id watermark; finally persist a repaired superblock
// with a bumped generation fence and zero the region's first block.
func Recover(dev nvme.Device) (*storage.Meta, *RecoverReport, error) {
	rep := &RecoverReport{}
	io, err := newSetupIO(dev)
	if err != nil {
		return nil, nil, err
	}
	defer io.close()

	pageSize := uint64(storage.PageSize)
	if bs := uint64(dev.BlockSize()); bs != pageSize {
		return nil, nil, fmt.Errorf("core: recover: block size %d, want %d", bs, pageSize)
	}

	// Superblock: may be torn (crash during a meta write). A torn meta is
	// recoverable when the journal holds its replacement image. Only a
	// page that was read and does not decode counts as torn: a device
	// error is returned as one, never taken for a missing tree.
	page0 := pageRead(0, 1)
	if err := io.seq(page0); err != nil {
		return nil, nil, fmt.Errorf("core: recover: read meta: %w", err)
	}
	meta, metaErr := storage.DecodeMeta(page0.Buf)

	var walStart, walBlocks uint64
	var fenceGen uint32
	if metaErr == nil {
		if meta.WALBlocks == 0 || meta.WALStart == 0 {
			// Journal-less image (bulk-loaded, or formatted before the
			// region existed): nothing to replay, nothing to verify.
			return meta, rep, nil
		}
		walStart, walBlocks = meta.WALStart, meta.WALBlocks
		fenceGen = meta.WALGen
	} else if !errors.Is(metaErr, storage.ErrCorruptPage) && !errors.Is(metaErr, storage.ErrNotMeta) {
		// A sealed superblock this build cannot read (another version) is
		// somebody's tree, not a torn or missing one.
		return nil, nil, fmt.Errorf("core: recover: %w", metaErr)
	} else {
		// Torn superblock: fall back to the region Format would have laid
		// out. If the device never had one, there is nothing to recover
		// from and the image is unusable.
		walStart, walBlocks = walGeometry(dev.NumBlocks())
		if walBlocks == 0 {
			return nil, nil, fmt.Errorf("%w: unreadable meta and no journal region: %v", ErrUnformatted, metaErr)
		}
	}
	rep.Journaled = true

	// Read the region's first block; only a log with a frame there (not
	// one a checkpoint or a clean close left empty) is read in full, the
	// rest in bounded chunks, all in flight together.
	head := pageRead(storage.PageID(walStart), 1)
	if err := io.seq(head); err != nil {
		return nil, nil, fmt.Errorf("core: recover: read journal region: %w", err)
	}
	region := head.Buf
	if !wal.Empty(region) {
		region = make([]byte, walBlocks*pageSize)
		copy(region, head.Buf)
		const chunk = 128
		err = io.run(int((walBlocks-1+chunk-1)/chunk), func(i, _ int) nvme.Command {
			off := 1 + uint64(i)*chunk
			n := min(chunk, walBlocks-off)
			return nvme.Command{Op: nvme.OpRead, LBA: walStart + off, Blocks: int(n), Buf: region[off*pageSize : (off+n)*pageSize]}
		}, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("core: recover: read journal region: %w", err)
		}
	}

	records, gen := wal.Recover(region)
	rep.Records = len(records)
	if gen < fenceGen {
		// Every scanned record was retired by a checkpoint whose meta
		// fence is durable; the pages they describe are already on disk.
		rep.StaleSkipped = len(records)
		records = nil
	} else if len(records) > 0 {
		rep.Generation = gen
	}

	redo, err := parseRedo(records, rep)
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: journal generation %d: %w", gen, err)
	}

	// Fold per page, in log order: an image replaces the page's state, a
	// leaf record is applied to it. A page the live log holds no image of
	// starts from the device's — read queue-deep, all at once — which the
	// write-ahead rule keeps from running ahead of the log, and which, one
	// LBA, is never torn. Then every page is written once, queue-deep.
	pages := foldRedo(redo)
	var bases []*redoPage
	for _, p := range pages {
		if p.image == nil {
			bases = append(bases, p)
		}
	}
	buf := make([]byte, len(bases)*storage.PageSize)
	base := func(i int) []byte { return buf[i*storage.PageSize : (i+1)*storage.PageSize] }
	err = io.run(len(bases), func(i, _ int) nvme.Command {
		return nvme.Command{Op: nvme.OpRead, LBA: uint64(bases[i].id), Blocks: 1, Buf: base(i)}
	}, func(i, _ int) error {
		if bases[i].image = base(i); !storage.VerifyPage(bases[i].id, base(i)) {
			return errCorruptRead
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: read redo bases: %w", err)
	}
	rep.BaseReads = len(bases)
	var journaledMeta []byte
	for _, p := range pages {
		if len(p.leaf) > 0 {
			if p.image, err = applyLeafRecords(p.id, p.image, p.leaf); err != nil {
				return nil, nil, fmt.Errorf("core: recover: %w", err)
			}
		}
		if p.id == 0 {
			journaledMeta = p.image
		}
	}
	if err = io.run(len(pages), func(i, _ int) nvme.Command { return pageWrite(pages[i].id, pages[i].image) }, nil); err != nil {
		return nil, nil, fmt.Errorf("core: recover: redo: %w", err)
	}
	rep.PagesRedone = len(pages)

	// Re-establish the superblock. If page 0 was torn, the journal must
	// have supplied a replacement image (the meta page is journaled
	// whenever the root moves).
	if metaErr != nil {
		if journaledMeta == nil {
			return nil, nil, fmt.Errorf("%w: unreadable meta and no journaled replacement: %v", ErrUnformatted, metaErr)
		}
		meta, err = storage.DecodeMeta(journaledMeta)
		if err != nil {
			return nil, nil, fmt.Errorf("core: recover: journaled meta image invalid: %w", err)
		}
		rep.MetaRepaired = true
	} else if journaledMeta != nil {
		// Replay rewrote page 0: the image read from it earlier is stale.
		if rebuilt, err := storage.DecodeMeta(journaledMeta); err == nil {
			meta = rebuilt
		}
	}
	if meta.WALStart == 0 || meta.WALBlocks == 0 {
		meta.WALStart, meta.WALBlocks = walStart, walBlocks
	}

	// Verification walk: every reachable page must read and verify (which
	// rejects torn and malformed pages), recounting keys and the allocation
	// watermark.
	var keys uint64
	maxID := meta.Root
	err = walkTree(io, meta.Root, func(n *storage.Node) {
		maxID = max(maxID, n.ID)
		if n.IsLeaf() {
			keys += uint64(len(n.Keys))
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: %w", err)
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

	// Fence and persist: the new generation is strictly above anything in
	// the region, so a crash after this point can never replay the
	// records again; then physically empty the log.
	newGen := fenceGen
	if gen >= newGen {
		newGen = gen
	}
	newGen++
	if newGen < 1 {
		newGen = 1
	}
	meta.WALGen = newGen
	err = io.seq(pageWrite(0, meta.Encode()), nvme.Command{Op: nvme.OpFlush},
		pageWrite(storage.PageID(meta.WALStart), make([]byte, storage.PageSize)), nvme.Command{Op: nvme.OpFlush})
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: fence: %w", err)
	}
	return meta, rep, nil
}

// redoPage is one page recovery writes back: the newest image record of
// it (nil until the base is read: the log holds none) and the leaf
// records logged after that image.
type redoPage struct {
	id    storage.PageID
	image []byte
	leaf  []redoRecord
}

// foldRedo groups redo records by page, pages in order of first
// appearance: an image record drops whatever the page had gathered
// before it.
func foldRedo(redo []redoRecord) []*redoPage {
	var pages []*redoPage
	byID := make(map[storage.PageID]*redoPage)
	for _, r := range redo {
		p := byID[r.id]
		if p == nil {
			p = &redoPage{id: r.id}
			byID[r.id] = p
			pages = append(pages, p)
		}
		if r.image != nil {
			p.image, p.leaf = r.image, nil
		} else {
			p.leaf = append(p.leaf, r)
		}
	}
	return pages
}

// parseRedo turns a live generation's records into the records to redo,
// in log order, counting groups and the dropped tail into rep. A group is
// the cnt records [opSeq, idx 0..cnt-1] one operation appended; only
// complete groups are redone (an incomplete trailing one was never
// acknowledged) and each of their images must verify. A record of
// another format is an error, with its place in the log: it may be an
// acknowledged write.
func parseRedo(records [][]byte, rep *RecoverReport) (redo []redoRecord, err error) {
	var group []redoRecord
	var groupSeq uint64
	off := 0
	for i, rec := range records {
		r, err := decodeRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("record %d at log offset %d: %w", i, off, err)
		}
		off += wal.FrameOverhead + len(rec)
		if r.cnt < 1 || r.idx >= r.cnt {
			break // malformed: stop scanning, drop the rest
		}
		if r.idx == 0 {
			group = group[:0]
			groupSeq = r.seq
		} else if r.seq != groupSeq || r.idx != len(group) {
			group = group[:0]
			continue // out-of-order fragment: unusable
		}
		group = append(group, r)
		if r.idx < r.cnt-1 {
			continue
		}
		for _, p := range group {
			if p.image != nil && !storage.VerifyPage(p.id, p.image) {
				return nil, fmt.Errorf("journaled image for page %d fails verification", p.id)
			}
		}
		redo = append(redo, group...)
		rep.Groups++
		group = group[:0]
	}
	rep.DroppedTail += len(group)
	return redo, nil
}

// walkTree reads every page reachable from root and hands each decoded
// node to visit. It goes breadth-first, so all of a level's page ids are
// known before any of them is read: the level is issued at queue depth
// into per-slot buffers and decoded as completions arrive, in their
// order. A page that fails VerifyPage is re-read within the setup
// budget and is an error beyond it; reading more pages than the device
// has blocks means the links form a cycle.
func walkTree(io *setupIO, root storage.PageID, visit func(*storage.Node)) error {
	bufs := make([]byte, setupDepth*storage.PageSize)
	page := func(slot int) []byte { return bufs[slot*storage.PageSize : (slot+1)*storage.PageSize] }
	seen := uint64(0)
	for level := []storage.PageID{root}; len(level) > 0; {
		var next []storage.PageID
		err := io.run(len(level), func(i, slot int) nvme.Command {
			return nvme.Command{Op: nvme.OpRead, LBA: uint64(level[i]), Blocks: 1, Buf: page(slot)}
		}, func(i, slot int) error {
			if !storage.VerifyPage(level[i], page(slot)) {
				return fmt.Errorf("page %d unreadable: %w", level[i], errCorruptRead)
			}
			n, err := storage.DecodeNode(level[i], page(slot))
			if err != nil {
				return fmt.Errorf("page %d unreadable: %w", level[i], err)
			}
			if seen++; seen > io.dev.NumBlocks() {
				return fmt.Errorf("tree walk exceeds device size (cycle?)")
			}
			visit(n)
			next = append(next, n.Children...)
			return nil
		})
		if err != nil {
			return err
		}
		level = next
	}
	return nil
}
