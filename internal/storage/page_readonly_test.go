//go:build linux

package storage

import (
	"hash/crc32"
	"runtime/debug"
	"syscall"
	"testing"
)

// TestVerifiersNeverWritePage maps a sealed leaf read-only and runs
// VerifyPage and every reader of a verified image over it: a write to the
// image — even one that puts the bytes back — faults, and SetPanicOnFault
// turns the fault into a panic the test reports. The buffer, an in-flight
// write and a log record may share one image, so reading it must only
// read it.
func TestVerifiersNeverWritePage(t *testing.T) {
	mem, err := syscall.Mmap(-1, 0, syscall.Getpagesize(), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	n := NewLeaf(3)
	for k := uint64(1); k <= 5; k++ {
		n.InsertLeaf(k*10, []byte("value"))
	}
	n.EncodeTo(mem)
	if err := syscall.Mprotect(mem, syscall.PROT_READ); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	page := mem[:PageSize]
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	dst := make([]byte, PageSize)
	for _, c := range []struct {
		name string
		call func() bool
	}{
		{"VerifyPage", func() bool { return VerifyPage(3, page) }},
		{"SearchPage", func() bool { s, err := SearchPage(page, 30); return err == nil && s.Found }},
		{"EditLeaf", func() bool {
			found, fits := EditLeaf(dst, page, 3, 30, nil, true)
			return found && fits
		}},
		{"DecodeNode", func() bool { n, err := DecodeNode(3, page); return err == nil && n.NumKeys() == 5 }},
		{"LeafRangeShared", func() bool {
			pairs := 0
			LeafRangeShared(page, 20, 40, func(uint64, []byte) bool { pairs++; return true })
			return pairs == 3
		}},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s wrote into the page it checks: %v", c.name, r)
				}
			}()
			if !c.call() {
				t.Errorf("%s rejected a sealed leaf", c.name)
			}
		}()
	}
}

// TestPageSumIsZeroedFieldCRC checks the affine checksum against its
// definition, the CRC seeded by the page id of the page with bytes 12–15
// zeroed, for every value of each field byte.
func TestPageSumIsZeroedFieldCRC(t *testing.T) {
	const id = 9 | 5<<32
	n := NewLeaf(id)
	n.InsertLeaf(7, []byte("seven"))
	buf := n.Encode()
	zeroed := append([]byte(nil), buf...)
	putU32(zeroed[12:16], 0)
	want := crc32.Update(9^5, crcTable, zeroed)
	if got := getU32(buf[12:16]); got != want {
		t.Fatalf("sealed checksum %08x, zeroed-field CRC %08x", got, want)
	}
	for k := 12; k < 16; k++ {
		for b := range 256 {
			img := append([]byte(nil), zeroed...)
			img[k] = byte(b)
			if got := pageSum(id, img); got != want {
				t.Fatalf("byte %d = %#x: pageSum %08x, want %08x", k, b, got, want)
			}
		}
	}
}
