package patree

import (
	"errors"
	"reflect"
	"testing"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// TestOpenRefusesLegacyJournal hand-builds a log in the record layout of
// builds before the format tag — an 18-byte header and the whole page —
// and opens the device. In a live generation such records may be
// acknowledged writes this build cannot replay: Open must fail with
// core.ErrJournalFormat and leave every block as it found it (no redo, no
// fence, no format). The same log in a generation the superblock has
// fenced out is a retired one and opens like any other.
func TestOpenRefusesLegacyJournal(t *testing.T) {
	for _, retired := range []bool{false, true} {
		dev := loadedRAM(t, 500)
		meta, err := core.ReadMeta(dev)
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, storage.PageSize)
		dev.ReadAt(1, page) // the first leaf: a valid image for the records to carry
		log := wal.NewLog(storage.PageSize, meta.WALBlocks)
		log.SetGeneration(meta.WALGen)
		for seq := uint64(1); seq <= 3; seq++ {
			rec := make([]byte, 18+storage.PageSize)
			rec[0] = byte(seq)    // opSeq, little-endian
			rec[8], rec[9] = 0, 1 // record 0 of a group of 1
			rec[10] = 1           // page id
			copy(rec[18:], page)
			if _, err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		log.Flush(func(bi uint64, data []byte) { dev.WriteAt(meta.WALStart+bi, data) })
		if retired {
			meta.WALGen++
			dev.WriteAt(0, meta.Encode())
		}
		before := dev.ImageSnapshot()

		db, err := Open(Options{Device: dev, Journal: true})
		if retired {
			if err != nil {
				t.Fatalf("legacy records below the fence: open: %v", err)
			}
			if v, ok, err := db.Get(250); err != nil || !ok || string(v) != "value-000250" {
				t.Fatalf("get after open: %q %v %v", v, ok, err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !errors.Is(err, core.ErrJournalFormat) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("legacy records in the live generation: open err = %v, want core.ErrJournalFormat", err)
		}
		t.Logf("refused: %v", err)
		if !reflect.DeepEqual(dev.ImageSnapshot(), before) {
			t.Fatal("a refused open changed the device image")
		}
	}
}
