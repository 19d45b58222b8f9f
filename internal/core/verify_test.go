package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"testing"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

// resealed returns a copy of page with edit applied, sealed as page id the
// way storage seals: the CRC-32C, seeded by the id, of the image with its
// checksum field zeroed.
func resealed(id storage.PageID, page []byte, edit func([]byte)) []byte {
	b := append([]byte(nil), page...)
	edit(b)
	binary.LittleEndian.PutUint32(b[12:16], 0)
	sum := crc32.Update(uint32(id)^uint32(id>>32), crc32.MakeTable(crc32.Castagnoli), b)
	binary.LittleEndian.PutUint32(b[12:16], sum)
	return b
}

// tooManyKeys gives a page a key count no page can hold.
func tooManyKeys(b []byte) { binary.LittleEndian.PutUint16(b[2:4], 1000) }

// TestRecoverRefusesMalformedPage: a sealed page whose key count runs past
// the page, at the root or at a leaf, fails the walk's VerifyPage like a
// bad checksum does: re-read within the setup budget, then an error, and
// no panic.
func TestRecoverRefusesMalformedPage(t *testing.T) {
	base := bulkImage(t, 200)
	meta, err := storage.DecodeMeta(base[0])
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := pathTo(t, base, 300)
	for _, id := range []storage.PageID{meta.Root, leaf.ID} {
		img := maps.Clone(base)
		img[uint64(id)] = resealed(id, base[uint64(id)], tooManyKeys)
		if _, _, err := Recover(simWith(img, nvme.SimConfig{})); !errors.Is(err, errCorruptRead) {
			t.Fatalf("recover over malformed page %d: %v, want %v", id, err, errCorruptRead)
		}
	}
}

// TestDemandReadRefusesBadPage: a demand read that returns another page's
// sealed image (a misdirected read) or a sealed page of no valid shape is
// refused where it is reaped, retried up to MaxIORetries times, and then
// fails the tree with ErrDeviceFailed, as a bad checksum does: the search
// neither answers from the wrong page nor panics the working thread.
func TestDemandReadRefusesBadPage(t *testing.T) {
	base := bulkImage(t, 200)
	a, _ := pathTo(t, base, 3)
	b, _ := pathTo(t, base, 600)
	if a.ID == b.ID {
		t.Fatal("keys 3 and 600 share a leaf")
	}
	for _, c := range []struct {
		name string
		page []byte
	}{
		{"misdirected", base[uint64(b.ID)]},
		{"malformed", resealed(a.ID, base[uint64(a.ID)], tooManyKeys)},
	} {
		t.Run(c.name, func(t *testing.T) {
			img := maps.Clone(base)
			img[uint64(a.ID)] = c.page
			meta, err := storage.DecodeMeta(img[0])
			if err != nil {
				t.Fatal(err)
			}
			r := &rig{t: t, eng: sim.NewEngine()}
			r.os = simos.New(r.eng, simos.Config{})
			r.dev = nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 12, NumBlocks: recoverTestBlocks})
			r.dev.LoadImage(img)
			r.attach(t, Config{}, meta)
			if res := r.search(3); !errors.Is(res.Err, ErrDeviceFailed) {
				t.Fatalf("search over a %s page: found=%v err=%v, want %v", c.name, res.Found, res.Err, ErrDeviceFailed)
			}
			if st := r.tree.stats; st.IOErrors != uint64(r.tree.cfg.MaxIORetries)+1 {
				t.Fatalf("%d I/O errors, want %d (every attempt refused)", st.IOErrors, r.tree.cfg.MaxIORetries+1)
			}
		})
	}
}
